"""Analog beam selection on a small node: why the joint criterion matters.

Compares three ways of picking the per-subarray beams —
  * downlink gain alone (ignore the loopback path),
  * the joint gain-to-self-interference ratio, exhaustively,
  * the same objective with shortlist pruning —
and prints the downlink gain and residual coupling each achieves.
"""

import numpy as np

from fdhbf.beamforming import (
    NodeConfig,
    best_tx_beams,
    best_rx_beams,
    select_analog_beams,
)
from fdhbf.channel import (
    ArrayGeometry,
    ClusteredChannelParams,
    SiChannelParams,
    clustered_channel,
    rician_si_channel,
)
from fdhbf.codebook import dft_codebook
from fdhbf.numerics import herm


def coupling(w_rf, h_si, f_rf):
    return np.linalg.norm(herm(w_rf) @ h_si @ f_rf)


def main():
    rng = np.random.default_rng(21)
    node = NodeConfig(tx_antennas=32, rx_antennas=16, tx_chains=4,
                      rx_chains=2, dl_rx_antennas=4,
                      si_budget_dbm=-60.0, rx_noise_dbm=-90.0,
                      dl_rx_noise_dbm=-90.0)
    cb_tx = dft_codebook(node.tx_subarray)   # 8 beams per TX subarray
    cb_rx = dft_codebook(node.rx_subarray)   # 8 beams per RX subarray

    h_dl = clustered_channel(ArrayGeometry(4, 0.5), ArrayGeometry(32, 0.5),
                             ClusteredChannelParams(pathloss_db=80.0), rng)
    h_si = rician_si_channel(ArrayGeometry(16, 0.5), ArrayGeometry(32, 0.5),
                             SiChannelParams(k_factor_db=35.0, pathloss_db=40.0), rng)
    h_ul = clustered_channel(ArrayGeometry(16, 0.5), ArrayGeometry(1, 0.5),
                             ClusteredChannelParams(pathloss_db=80.0), rng)

    # 1) greedy per-chain beams, loopback ignored
    f_greedy = best_tx_beams(h_dl, cb_tx, node.tx_chains)
    w_greedy = best_rx_beams(h_ul, cb_rx, node.rx_chains)
    print("downlink-gain-only beams:")
    print(f"  tx {f_greedy.beam_indices}  rx {w_greedy.beam_indices}")
    print(f"  ||h_dl f_rf|| = {np.linalg.norm(h_dl @ f_greedy.matrix):.4e}   "
          f"coupling = {coupling(w_greedy.matrix, h_si, f_greedy.matrix):.4e}")

    # 2) joint ratio objective, full scan
    exact = select_analog_beams(h_dl, h_si, cb_tx, cb_rx, node,
                                strategy="exhaustive")
    print("joint ratio, exhaustive:")
    print(f"  tx {exact.f_rf.beam_indices}  rx {exact.w_rf.beam_indices}")
    print(f"  ||h_dl f_rf|| = {np.linalg.norm(h_dl @ exact.f_rf.matrix):.4e}   "
          f"coupling = {coupling(exact.w_rf.matrix, h_si, exact.f_rf.matrix):.4e}")
    tx_space = cb_tx.cardinality ** node.tx_chains
    print(f"  objective = {exact.objective:.2f}   "
          f"scored {exact.scored}/{tx_space} TX assignments")

    # 3) shortlist pruning: score at most the B^4 TX assignments of the
    #    shortlists instead of 8^4 (the RX beams are minimized per chain, not
    #    scanned), trading a little objective for a much smaller search
    for b in (1, 2, 4, 8):
        fast = select_analog_beams(h_dl, h_si, cb_tx, cb_rx, node,
                                   strategy="shortlist", shortlist_size=b)
        print(f"shortlist B={b}: objective {fast.objective:6.2f}   "
              f"scored {fast.scored:5d}/{tx_space} TX assignments")


if __name__ == "__main__":
    main()
