"""Config-file parsing, validation, CLI behavior, and CSV emission."""

import itertools
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fdhbf.beamforming import NodeConfig
from fdhbf.canceller import routing_table
from fdhbf.channel import ArrayGeometry, si_los_matrix
from fdhbf.cli import main
from fdhbf.config import (
    _SCHEMA,
    ConfigError,
    SweepConfig,
    config_from_values,
    load_config,
    parse_config_text,
    with_overrides,
)
from fdhbf.numerics import watts_to_dbm
from fdhbf.sweep import CSV_HEADER, draw_channels, emit_csv, run_sweep, SweepRow, trial_rng


TINY_CONFIG = """
# smallest node that still exercises the full pipeline
node.tx_antennas = 8
node.rx_antennas = 8
node.tx_chains = 2
node.rx_chains = 2
node.dl_rx_antennas = 2
node.si_budget_dbm = -60
node.rx_noise_dbm = -90
node.dl_rx_noise_dbm = -90
channel.pathloss_db = 60
si.pathloss_db = 40
canceller.taps = 2
sweep.powers_dbm = 10,30
sweep.trials = 3
sweep.seed = 5
"""


# =====================================================================
# parsing and validation
# =====================================================================


def test_parse_ignores_comments_and_blanks():
    vals = parse_config_text("# a comment\n\nnode.tx_antennas = 32\n")
    assert vals == {"node.tx_antennas": 32}


def test_parse_unknown_key_warns_but_proceeds():
    with pytest.warns(UserWarning, match="mystery.key"):
        vals = parse_config_text("mystery.key = 1\nnode.tx_chains = 2\n")
    assert vals == {"node.tx_chains": 2}


def test_parse_collects_every_problem():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("node.tx_antennas = oops\nsweep.trials = many\n")
    text = "\n".join(exc.value.problems)
    assert "node.tx_antennas" in text and "sweep.trials" in text


def test_defaults_fill_omitted_fields():
    cfg = config_from_values(parse_config_text("node.tx_antennas = 64\n"))
    assert cfg.node.tx_antennas == 64
    assert cfg.node.rx_antennas == 32
    assert cfg.node.tx_chains == 4 and cfg.node.rx_chains == 2
    assert cfg.node.dl_rx_antennas == 4 and cfg.node.ul_tx_antennas == 1
    assert cfg.node.rx_noise_dbm == -110.0
    assert cfg.node.si_budget_dbm == -47.0
    assert cfg.num_taps == 4
    assert cfg.trials == 1000
    assert cfg.powers_dbm == (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    assert cfg.clustered.pathloss_db == 110.0
    assert cfg.si.pathloss_db == 40.0 and cfg.si.k_factor_db == 35.0
    assert cfg.si.tx_rx_distance_wavelengths == 2.0
    assert cfg.si.tx_rx_angle_rad == pytest.approx(np.pi / 6.0)
    assert config_from_values({}) == SweepConfig()


def test_validation_collects_every_violation():
    with pytest.raises(ConfigError) as exc:
        config_from_values({"node.tx_antennas": 10, "node.tx_chains": 4,
                            "sweep.trials": 0, "canceller.taps": 99})
    assert len(exc.value.problems) >= 3


def test_nan_channel_keys_are_config_errors():
    # the channel constructors reject these too; the config must report
    # every key, before any constructor sees one
    keys = ["channel.pathloss_db", "si.pathloss_db", "si.angle_rad", "si.k_factor_db"]
    with pytest.raises(ConfigError) as exc:
        config_from_values({key: "nan" for key in keys})
    assert len(exc.value.problems) == 4
    assert sorted(p.split()[0] for p in exc.value.problems) == sorted(keys)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(TINY_CONFIG)
    cfg = load_config(path)
    assert isinstance(cfg, SweepConfig)
    assert cfg.trials == 3
    assert cfg.powers_dbm == (10.0, 30.0)
    assert cfg.node.tx_chains == 2


def test_with_overrides():
    cfg = config_from_values({})
    out = with_overrides(cfg, trials=7, seed=99)
    assert out.trials == 7 and out.seed == 99
    assert out.node == cfg.node  # untouched parts are preserved
    with pytest.raises(ConfigError):
        with_overrides(cfg, trials=0)


def test_readme_config_table_lists_every_key():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    documented = {key for row in rows for key in re.findall(r"`([a-z_]+\.[a-z_]+)`", row)}
    assert documented == set(_SCHEMA)


# one out-of-range (or unparseable) value per key, each set alone on
# TINY_CONFIG with canceller.taps = 0, so that it breaks nothing else
_OUT_OF_RANGE = {
    "node.tx_antennas": 0, "node.rx_antennas": 0, "node.tx_chains": 1,
    "node.rx_chains": 0, "node.dl_rx_antennas": 0, "node.ul_tx_antennas": 0,
    "node.rx_noise_dbm": 300.5, "node.dl_rx_noise_dbm": -300.5,
    "node.si_budget_dbm": np.nan, "array.spacing_wavelengths": 0.0,
    "channel.clusters": 0, "channel.rays": 0, "channel.angle_spread_rad": -1.0,
    "channel.pathloss_db": 1000.5, "si.k_factor_db": np.nan, "si.pathloss_db": -4000.0,
    "si.distance_wavelengths": 1e300, "si.angle_rad": np.inf,
    "codebook.subsample_step": 0, "canceller.taps": -1, "canceller.impaired": "maybe",
    "canceller.attenuation_step_db": -0.25, "canceller.phase_bits": 1024,
    "sweep.powers_dbm": "10,301", "sweep.trials": 0, "sweep.seed": -1,
    "sweep.strategy": "greedy", "sweep.shortlist": 0, "sweep.workers": 0,
    "sweep.output": 5,
}


def test_out_of_range_table_covers_every_key():
    assert set(_OUT_OF_RANGE) == set(_SCHEMA)


@pytest.mark.parametrize("key", sorted(_OUT_OF_RANGE))
def test_every_problem_starts_with_its_key(key):
    values = {**parse_config_text(TINY_CONFIG), "canceller.taps": 0, key: _OUT_OF_RANGE[key]}
    with pytest.raises(ConfigError) as exc:
        config_from_values(values)
    assert len(exc.value.problems) == 1, exc.value.problems
    assert re.match(rf"{re.escape(key)}[ :]", exc.value.problems[0]), exc.value.problems


# the edges of each record-backed key's bound, written out here so that the
# agreement test probes them whatever the records declare
_BOUND_EDGES = {
    "node.tx_antennas": (1,), "node.rx_antennas": (1,), "node.tx_chains": (2,),
    "node.rx_chains": (1,), "node.dl_rx_antennas": (1,), "node.ul_tx_antennas": (1,),
    "node.rx_noise_dbm": (-300.0, 300.0), "node.dl_rx_noise_dbm": (-300.0, 300.0),
    "node.si_budget_dbm": (-300.0, 300.0), "array.spacing_wavelengths": (0.0, 1e6),
    "channel.clusters": (1,), "channel.rays": (1,), "channel.angle_spread_rad": (0.0, 1e6),
    "channel.pathloss_db": (-300.0, 1000.0), "si.k_factor_db": (-300.0, 300.0),
    "si.pathloss_db": (-300.0, 1000.0), "si.distance_wavelengths": (1e-150, 1e6),
    "si.angle_rad": (), "canceller.attenuation_step_db": (0.0, 1e-300, 12000.0),
    "canceller.phase_bits": (0, 1023),
}
def _probes(edges):
    if edges and all(isinstance(edge, int) for edge in edges):
        return [-4000, 10 ** 300] + [edge + d for edge in edges for d in (-1, 0, 1)]
    return ([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e308, -4000.0]
            + [float(x) for edge in edges
               for x in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))])


def _record_rejects(key, value) -> bool:
    """Whether the library record behind `key` refuses `value`: NodeConfig
    lists it in validate(), the other records raise from the constructor."""
    section, name, _ = _SCHEMA[key]
    if section == "node":
        return bool(replace(NodeConfig(), **{name: value}).validate())
    try:
        if section is None:
            ArrayGeometry(1, value)
        else:
            replace(getattr(SweepConfig(), section), **{name: value})
    except ValueError:
        return True
    return False


def test_bound_edges_cover_every_record_backed_key():
    section_keys = {key for key, (section, _, _) in _SCHEMA.items() if section is not None}
    assert set(_BOUND_EDGES) == section_keys - {"canceller.impaired"} | {"array.spacing_wavelengths"}


@pytest.mark.parametrize("key", sorted(_BOUND_EDGES))
def test_config_and_records_agree_on_bounds(key):
    """config_from_values refuses a value exactly when the record that
    carries it does, so a value the validator accepts builds its record."""
    for value in _probes(_BOUND_EDGES[key]):
        try:
            config_from_values({key: value})
            config_rejects = False
        except ConfigError:
            config_rejects = True
        assert config_rejects == _record_rejects(key, value), (key, value)


# =====================================================================
# CSV emission
# =====================================================================


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_one_row_formatting(tmp_path):
    row = SweepRow(power_dbm=10.0, fd_rate=15.346912, dl_rate=12.654001,
                   ul_rate=2.69292, hd_rate=9.644131, feasibility=1.0,
                   mean_residual_si_dbm=-49.72101, trials=6)
    path = tmp_path / "one.csv"
    emit_csv([row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # six significant digits
    assert lines[1] == "10,15.3469,12.654,2.69292,9.64413,1,-49.721,6"


def test_same_sweep_twice_is_byte_identical(tmp_path):
    cfg = with_overrides(load_config_from_text(tmp_path), trials=2)
    rows1, _ = run_sweep(cfg)
    rows2, _ = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows1, p1)
    emit_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cold_and_warm_los_cache_give_the_same_csv_bytes(tmp_path):
    """A cleared and a warm line-of-sight cache, at one and two workers:
    forked workers either inherit the parent's matrix or build their own,
    and every path writes the same aggregate and per-trial CSVs."""
    config = tmp_path / "default.cfg"
    config.write_text("sweep.trials = 3\nsweep.seed = 12\n")
    cfg = load_config(config)
    outputs = set()
    for workers in (1, 2):
        for warm in (False, True):
            si_los_matrix.cache_clear()
            if warm:
                draw_channels(cfg, trial_rng(cfg.seed, 0, 0))
            assert si_los_matrix.cache_info().currsize == int(warm)
            stem = tmp_path / f"w{workers}_{'warm' if warm else 'cold'}"
            assert main(["run", "--config", str(config), "--workers", str(workers),
                         "--output", f"{stem}.csv", "--plot-data", f"{stem}_trials.csv"]) == 0
            outputs.add((Path(f"{stem}.csv").read_bytes(),
                         Path(f"{stem}_trials.csv").read_bytes()))
    assert len(outputs) == 1


def load_config_from_text(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return load_config(path)


# =====================================================================
# sweep statistics
# =====================================================================


def test_degenerate_sweep_equals_direct_trial(tmp_path):
    """One power point, one trial: the row is just that cell's result."""
    from fdhbf.codebook import dft_codebook
    from fdhbf.sweep import draw_channels, trial_rng
    from fdhbf.trial import solve_trial

    cfg = with_overrides(load_config_from_text(tmp_path), trials=1,
                         powers_dbm=(30.0,))
    rows, summaries = run_sweep(cfg)
    assert len(rows) == 1 and len(summaries) == 1

    rng = trial_rng(cfg.seed, 0, 0)
    channels = draw_channels(cfg, rng)
    node = replace(cfg.node, tx_power_dbm=30.0, ul_tx_power_dbm=30.0)
    cb = dft_codebook(node.tx_subarray)
    result = solve_trial(channels, node, cb, dft_codebook(node.rx_subarray),
                         cfg.num_taps, cfg.impairments,
                         strategy=cfg.strategy,
                         shortlist_size=cfg.shortlist_size)
    # every number the cell shares with the trial, bit for bit
    shared = ("dl_rate", "ul_rate", "fd_rate", "hd_rate", "feasible",
              "max_residual_si_w", "dl_subspace_dim")
    assert [getattr(summaries[0], n) for n in shared] == [getattr(result, n) for n in shared]
    assert rows[0].fd_rate == result.fd_rate
    assert rows[0].dl_rate == result.dl_rate
    assert rows[0].ul_rate == result.ul_rate
    assert rows[0].hd_rate == result.hd_rate
    assert rows[0].feasibility == float(result.feasible)
    assert rows[0].mean_residual_si_dbm == watts_to_dbm(result.max_residual_si_w)
    assert rows[0].trials == 1


def test_trial_summary_fields_follow_trial_result():
    """run_cell copies TrialResult's reported numbers into TrialSummary by
    name: the summary holds the cell's coordinates, then those numbers in
    TrialResult's order, then the cell's regularization count.  A new
    TrialResult field is either reported or listed here as part of the
    design."""
    from fdhbf.sweep import TrialSummary
    from fdhbf.trial import TrialResult

    design_side = ("f_rf", "w_rf", "f_bb", "w_bb", "f_ul", "canceller",
                   "beam_search_objective", "h_si_eff")
    reported = [f for f in fields(TrialResult) if f.name not in design_side]
    assert all(f.type in (float, int, bool) for f in reported)
    assert [f.name for f in fields(TrialSummary)] == [
        "power_dbm", "power_index", "trial_index",
        *(f.name for f in reported), "regularizations"]


def test_all_zero_uplink_channel_rates_zero(monkeypatch):
    """An all-zero h_ul carries no uplink signal: the cell reports a zero UL
    rate.  The chain-level covariance the uplink is rated against carries
    the receiver noise, so no factorization needs regularizing."""
    from fdhbf import sweep

    def zero_uplink(cfg, rng):
        channels = draw_channels(cfg, rng)
        return replace(channels, h_ul=np.zeros_like(channels.h_ul))

    monkeypatch.setattr(sweep, "draw_channels", zero_uplink)
    for ul_antennas in (1, 2):
        cfg = config_from_values({"node.ul_tx_antennas": ul_antennas})
        summary = sweep.run_cell(cfg, 0, 0)
        assert summary.ul_rate == 0.0 and summary.regularizations == 0
        assert summary.fd_rate == summary.dl_rate > 0.0
        assert np.isfinite(summary.hd_rate)


def test_regularizations_are_counted_per_cell_and_noted(tmp_path, capsys, monkeypatch):
    """A regularization inside solve_trials counts in its own cell's summary,
    and `run` notes the sweep's total.  A chunk of two slabs tells one item
    per draw from one per slab, which a one-slab chunk would broadcast to
    every cell."""
    from fdhbf import sweep, trial
    from fdhbf.numerics import log2det_hpd

    solve_trials = trial.solve_trials

    def one_singular_factorization_per_draw(channels, *args, **kwargs):
        channels = list(channels)  # slabs, each of one draw or a stack of them
        draws = sum(slab.h_dl[..., 0, 0].size for slab in channels)
        log2det_hpd(np.zeros((draws, 2, 2)))  # item i counts for draw i
        return solve_trials(channels, *args, **kwargs)

    for module in (sweep, trial):  # run_chunk's name, and solve_trial's for one cell
        monkeypatch.setattr(module, "solve_trials", one_singular_factorization_per_draw)
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    cfg = load_config(cfg_path)
    assert sweep.run_cell(cfg, 0, 0).regularizations == 1
    _, summaries = run_sweep(with_overrides(cfg, trials=sweep._SLAB + 3))
    assert [s.regularizations for s in summaries] == [1] * 2 * (sweep._SLAB + 3)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--trials", "2",
                 "--output", str(tmp_path / "o.csv")]) == 0
    assert "note: 4 factorization(s) needed diagonal regularization" in capsys.readouterr().out


def _fd_sem(cfg, trials):
    _, summaries = run_sweep(with_overrides(cfg, trials=trials))
    fd = np.array([s.fd_rate for s in summaries])
    return float(np.std(fd, ddof=1) / np.sqrt(len(fd)))


def test_doubling_trials_shrinks_sem_like_root_two(tmp_path):
    """Standard error of the mean FD rate scales ~ 1/sqrt(trials).

    The ratio between 80- and 40-trial SEM estimates is itself a noisy
    statistic, so the tolerance is a generous 20% around 1/sqrt(2) and the
    seed is fixed.
    """
    cfg = with_overrides(load_config_from_text(tmp_path),
                         powers_dbm=(30.0,), seed=9)
    ratio = _fd_sem(cfg, 80) / _fd_sem(cfg, 40)
    target = 1.0 / np.sqrt(2.0)
    assert target * 0.8 < ratio < target * 1.2


# =====================================================================
# command-line interface
# =====================================================================


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    out_path = tmp_path / "out.csv"
    code = main(["run", "--config", str(cfg_path), "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # two power points
    assert all(line.split(",")[-1] == "3" for line in lines[1:])


def test_cli_run_prints_the_aggregate_csv(tmp_path, capsys):
    """stdout holds the run line, the header, the aggregate CSV's rows in
    order, then the path written."""
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    out_path = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg_path), "--output", str(out_path)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0].startswith("running 2 power points x 3 trials")
    assert stdout[1:] == [*out_path.read_text().splitlines(), f"wrote {out_path}"]


def test_cli_overrides_apply(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    out_path = tmp_path / "out.csv"
    plot_path = tmp_path / "trials.csv"
    code = main(["run", "--config", str(cfg_path),
                 "--trials", "2", "--power-grid", "20",
                 "--output", str(out_path), "--plot-data", str(plot_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("20,")
    assert lines[1].endswith(",2")
    # per-trial records: header plus trials x powers rows
    assert len(plot_path.read_text().splitlines()) == 3


def test_cli_seed_changes_results(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    outs = []
    for seed in ("5", "6"):
        out_path = tmp_path / f"out{seed}.csv"
        assert main(["run", "--config", str(cfg_path), "--seed", seed,
                     "--output", str(out_path)]) == 0
        outs.append(out_path.read_text())
    assert outs[0] != outs[1]


def test_cli_validate_accepts_good_config(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    assert main(["validate", "--config", str(cfg_path)]) == 0


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("node.tx_antennas = 10\nnode.tx_chains = 4\n")
    assert main(["validate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "tx_antennas" in err and "tx_chains" in err


def test_cli_missing_config_is_runtime_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_dump_channels(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    dump_dir = tmp_path / "dumps"
    code = main(["run", "--config", str(cfg_path), "--trials", "1",
                 "--power-grid", "30", "--output", str(tmp_path / "o.csv"),
                 "--dump-channels", str(dump_dir)])
    assert code == 0
    dumped = sorted(p.name for p in dump_dir.iterdir())
    assert len(dumped) == 3  # one file per channel matrix of the single cell


# (key, value, override flag for the key or None, exit code of validate and run)
_EDGE_INPUTS = [
    ("sweep.powers_dbm", "inf", "--power-grid", 1),
    ("sweep.powers_dbm", "nan", "--power-grid", 1),
    ("sweep.powers_dbm", "1e6", "--power-grid", 1),
    ("sweep.powers_dbm", "300.5", "--power-grid", 1),
    ("sweep.powers_dbm", "-300.5", "--power-grid", 1),
    ("sweep.seed", "-1", "--seed", 1),
    ("node.tx_chains", "1", None, 1),
    ("si.k_factor_db", "nan", None, 1),
    ("si.angle_rad", "nan", None, 1),
    ("channel.pathloss_db", "inf", None, 1),
    ("channel.angle_spread_rad", "inf", None, 1),
    ("si.k_factor_db", "inf", None, 0),  # pure line-of-sight loopback
    ("canceller.phase_bits", "1024", None, 1),  # 2.0 ** 1024 overflows
    ("canceller.attenuation_step_db", "1e-310", None, 1),  # 20 log10|w| / step overflows
    ("canceller.attenuation_step_db", "1e-300", None, 0),
    ("si.k_factor_db", "1e300", None, 1),  # 10 ** (dB / 10) overflows
    ("si.k_factor_db", "300.5", None, 1),
    ("si.k_factor_db", "-inf", None, 0),  # pure scatter
    ("si.k_factor_db", "300", None, 0),
    ("si.k_factor_db", "-300", None, 0),
    ("channel.pathloss_db", "-4000", None, 1),
    ("channel.pathloss_db", "1000.5", None, 1),
    ("channel.pathloss_db", "-300", None, 0),
    ("channel.pathloss_db", "1000", None, 0),
    ("si.pathloss_db", "-4000", None, 1),
    ("si.pathloss_db", "-300.5", None, 1),
    ("si.pathloss_db", "-300", None, 0),
    ("si.pathloss_db", "1000", None, 0),
    ("array.spacing_wavelengths", "1e300", None, 1),  # non-finite steering phases
    ("array.spacing_wavelengths", "1e6", None, 0),
    ("si.distance_wavelengths", "1e300", None, 1),  # non-finite SI channel
    ("si.distance_wavelengths", "1e6", None, 0),
    ("si.distance_wavelengths", "1e-150", None, 0),
    ("si.distance_wavelengths", "1e-300", None, 1),  # squared distances underflow
    ("sweep.powers_dbm", "-300", "--power-grid", 0),
    ("sweep.powers_dbm", "300", "--power-grid", 0),
]


@pytest.mark.parametrize("key, value, flag, code", _EDGE_INPUTS)
def test_validate_and_run_agree(tmp_path, capsys, key, value, flag, code):
    """A value `validate` accepts runs; one it rejects fails `run` as a
    config error (exit 1) from the file and from the override flag alike."""
    base = tmp_path / "base.cfg"
    base.write_text(TINY_CONFIG)
    edited = tmp_path / "edited.cfg"
    edited.write_text(f"{TINY_CONFIG}{key} = {value}\n")
    run = ["run", "--trials", "1", "--output", str(tmp_path / "o.csv"), "--config"]
    commands = [["validate", "--config", str(edited)], run + [str(edited)]]
    if flag is not None:
        commands.append(run + [str(base), f"{flag}={value}"])
    for argv in commands:
        assert main(argv) == code, argv
        if code == 1:
            assert "config error:" in capsys.readouterr().err


def test_routing_cap_is_a_config_error(tmp_path, capsys):
    """64 x 2 chains with 4 taps would need C(128, 4) = 10,668,000 routings:
    validate and run refuse it before any routing table is built."""
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"{TINY_CONFIG}node.tx_antennas = 64\nnode.tx_chains = 64\ncanceller.taps = 4\n")
    builds = routing_table.cache_info().misses
    for argv in (["validate", "--config", str(cfg)],
                 ["run", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]):
        assert main(argv) == 1
        assert ("config error: canceller.taps must give at most 65536 routings "
                "(C(128, 4) on 64 x 2 chains)") in capsys.readouterr().err
    assert routing_table.cache_info().misses == builds
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("taps, ok", [(6, True), (7, False), (13, False), (14, True)])
def test_routing_cap_edge(taps, ok):
    # C(20, 6) = C(20, 14) = 38,760 routings fit under 2**16, C(20, 7) = 77,520 do not
    values = {"node.tx_antennas": 60, "node.tx_chains": 10, "canceller.taps": taps}
    if ok:
        assert config_from_values(values).num_taps == taps
    else:
        with pytest.raises(ConfigError, match="canceller.taps must give at most"):
            config_from_values(values)


@pytest.mark.parametrize("bits, code", [(1023, 0), (1024, 1)])
def test_phase_grid_limit_with_impaired_taps(tmp_path, capsys, bits, code):
    """The quantizer runs at the finest phase grid `validate` accepts."""
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(f"{TINY_CONFIG}canceller.impaired = on\ncanceller.phase_bits = {bits}\n")
    assert main(["validate", "--config", str(cfg)]) == code
    assert main(["run", "--trials", "1", "--config", str(cfg),
                 "--output", str(tmp_path / "o.csv")]) == code
    if code == 1:
        assert "canceller.phase_bits must lie in 0..1023" in capsys.readouterr().err


@pytest.mark.parametrize("step, code", [("12000", 0), ("1e300", 1)])
def test_attenuation_step_limit_with_impaired_taps(tmp_path, capsys, step, code):
    """The quantizer and its error bound run at the coarsest magnitude grid
    `validate` accepts."""
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(f"{TINY_CONFIG}canceller.impaired = on\ncanceller.attenuation_step_db = {step}\n")
    assert main(["validate", "--config", str(cfg)]) == code
    assert main(["run", "--trials", "1", "--config", str(cfg),
                 "--output", str(tmp_path / "o.csv")]) == code
    if code == 1:
        assert "canceller.attenuation_step_db must be 0 or lie in" in capsys.readouterr().err


def test_finest_attenuation_grid_still_cancels(tmp_path):
    """At the finest magnitude grid `validate` accepts the quantizer runs and
    the taps still cancel: the run differs from one with the canceller off."""
    csvs = []
    for name, extra in (("fine", "canceller.impaired = on\ncanceller.attenuation_step_db = 1e-300\n"),
                        ("off", "canceller.taps = 0\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(TINY_CONFIG + extra)
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--trials", "1", "--config", str(cfg), "--output", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] != csvs[1]


def test_removed_stream_caps_warn_and_change_nothing(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text(TINY_CONFIG)
    capped = tmp_path / "capped.cfg"
    capped.write_text(TINY_CONFIG + "node.max_dl_streams = 1\n")
    assert main(["run", "--config", str(base), "--output", str(tmp_path / "base.csv")]) == 0
    with pytest.warns(UserWarning, match="node.max_dl_streams"):
        assert main(["run", "--config", str(capped),
                     "--output", str(tmp_path / "capped.csv")]) == 0
    assert (tmp_path / "capped.csv").read_bytes() == (tmp_path / "base.csv").read_bytes()
