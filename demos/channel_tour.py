"""Tour of the two channel models: clustered multipath and Rician loopback.

Draws a batch of each, then checks the two headline calibration properties
numerically: the clustered model's average Frobenius power matches the
pathloss target, and the loopback model's line-of-sight part dominates as
the K-factor grows.
"""

import numpy as np

from fdhbf.channel import (
    ArrayGeometry,
    ClusteredChannelParams,
    SiChannelParams,
    clustered_channel,
    rician_si_channel,
)


def main():
    rng = np.random.default_rng(7)

    # 1) clustered multipath, 110 dB pathloss: E||H||_F^2 = rows*cols*1e-11
    rows, cols = 4, 16
    geom_rx = ArrayGeometry(rows, 0.5)
    geom_tx = ArrayGeometry(cols, 0.5)
    params = ClusteredChannelParams(pathloss_db=110.0)
    target = rows * cols * 10.0 ** (-110.0 / 10.0)
    draws = [clustered_channel(geom_rx, geom_tx, params, rng)
             for _ in range(4000)]
    mean_power = np.mean([np.linalg.norm(h) ** 2 for h in draws])
    print(f"clustered {rows}x{cols} @ 110 dB pathloss")
    print(f"  mean ||H||_F^2 = {mean_power:.3e}  (target {target:.3e}, "
          f"ratio {mean_power / target:.3f})")

    # 2) pathloss is a pure scale: +20 dB -> 100x weaker, same fading
    weaker = ClusteredChannelParams(pathloss_db=130.0)
    h_a = clustered_channel(geom_rx, geom_tx, params, np.random.default_rng(99))
    h_b = clustered_channel(geom_rx, geom_tx, weaker, np.random.default_rng(99))
    print(f"  +20 dB pathloss, same stream: power ratio = "
          f"{np.linalg.norm(h_a) ** 2 / np.linalg.norm(h_b) ** 2:.1f}")

    # 3) loopback (self-interference) channel: near-field line-of-sight
    #    plus scattered part, mixed by the Rician K-factor
    si = SiChannelParams(k_factor_db=35.0, pathloss_db=40.0)
    h_si = rician_si_channel(ArrayGeometry(8, 0.5), ArrayGeometry(8, 0.5), si, rng)
    print(f"loopback 8x8 @ 40 dB pathloss, K = 35 dB")
    print(f"  ||H_SI||_F^2 = {np.linalg.norm(h_si) ** 2:.4e} "
          f"(target {64 * 1e-4:.4e})")

    # 4) K sweep: high K pins the draw to the deterministic near-field term
    base = rician_si_channel(ArrayGeometry(8, 0.5), ArrayGeometry(8, 0.5),
                             SiChannelParams(k_factor_db=300.0, pathloss_db=40.0),
                             np.random.default_rng(1))
    print("  spread of draws around the K->inf limit:")
    for k_db in (0.0, 15.0, 35.0):
        p = SiChannelParams(k_factor_db=k_db, pathloss_db=40.0)
        devs = [np.linalg.norm(
            rician_si_channel(ArrayGeometry(8, 0.5), ArrayGeometry(8, 0.5), p, rng)
            - base) for _ in range(200)]
        print(f"    K = {k_db:5.1f} dB   mean deviation {np.mean(devs):.5f}")


if __name__ == "__main__":
    main()
