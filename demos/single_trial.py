"""One full trial, step by step: channels in, rates out.

Draws the three channels, solves the whole design — analog beams, tap
routing, digital precoder/combiner — and unpacks what came back.
"""

import numpy as np

from fdhbf.beamforming import NodeConfig
from fdhbf.canceller import TapImpairments
from fdhbf.channel import (
    ArrayGeometry,
    ChannelRealization,
    ClusteredChannelParams,
    SiChannelParams,
    clustered_channel,
    rician_si_channel,
)
from fdhbf.codebook import dft_codebook
from fdhbf.numerics import watts_to_dbm
from fdhbf.rates import residual_si_profile
from fdhbf.trial import solve_trial


def main():
    rng = np.random.default_rng(11)
    node = NodeConfig(tx_antennas=32, rx_antennas=16, tx_chains=4,
                      rx_chains=2, dl_rx_antennas=4, tx_power_dbm=40.0,
                      ul_tx_power_dbm=40.0, si_budget_dbm=-47.0,
                      rx_noise_dbm=-110.0, dl_rx_noise_dbm=-110.0)
    spacing = 0.5
    geom_tx = ArrayGeometry(node.tx_antennas, spacing)
    geom_rx = ArrayGeometry(node.rx_antennas, spacing)
    dl_params = ClusteredChannelParams(pathloss_db=110.0)
    si_params = SiChannelParams(k_factor_db=35.0, pathloss_db=40.0)

    channels = ChannelRealization(
        h_dl=clustered_channel(ArrayGeometry(node.dl_rx_antennas, spacing), geom_tx,
                               dl_params, rng),
        h_ul=clustered_channel(geom_rx, ArrayGeometry(node.ul_tx_antennas, spacing),
                               dl_params, rng),
        h_si=rician_si_channel(geom_rx, geom_tx, si_params, rng),
    )

    result = solve_trial(channels, node,
                         dft_codebook(node.tx_subarray),
                         dft_codebook(node.rx_subarray),
                         num_taps=4,
                         impairments=TapImpairments(enabled=True))

    f_bb = result.f_bb
    print(f"tx beams {result.f_rf.beam_indices}   rx beams {result.w_rf.beam_indices}")
    print(f"tap routing {result.canceller.routing.taps}")
    print(f"digital precoder {f_bb.shape[0]}x{f_bb.shape[1]} on a "
          f"{result.dl_subspace_dim}-dim low-leak subspace "
          f"(feasible: {result.feasible})")

    prof = residual_si_profile(result.h_si_eff, f_bb)
    print("residual self-interference per RX chain [dBm]: "
          + "  ".join(f"{watts_to_dbm(float(p)):7.2f}" for p in prof)
          + f"   (budget {node.si_budget_dbm:.0f})")

    print(f"downlink {result.dl_rate:6.2f} bits/s/Hz")
    print(f"uplink   {result.ul_rate:6.2f} bits/s/Hz")
    print(f"together {result.fd_rate:6.2f} vs half-duplex baseline "
          f"{result.hd_rate:.2f}  ({result.fd_rate / result.hd_rate:.2f}x)")


if __name__ == "__main__":
    main()
