"""Sweep configuration: a flat key-value text format with dotted keys.

Lines look like ``section.key = value``; ``#`` starts a comment; blank lines
are skipped.  Unknown keys produce a warning and are ignored so configs stay
forward compatible.  Validation collects *every* violated constraint before
failing, so one round trip fixes a bad file.

Every way in -- a config file, a ``{key: value}`` dict, :func:`with_overrides`
and the CLI's override flags -- goes through :func:`config_from_values`, so
they all accept exactly the same values.
"""

import math
import operator
import warnings
from dataclasses import dataclass, field, replace

from .beamforming import NodeConfig
from .canceller import MAX_ATTENUATION_STEP_DB, MIN_ATTENUATION_STEP_DB
from .canceller import MAX_PHASE_BITS, TapImpairments
from .channel import MIN_SI_DISTANCE_WAVELENGTHS, ClusteredChannelParams, SiChannelParams
from .numerics import DBM_LIMIT


class ConfigError(ValueError):
    """Raised with the full list of config problems in `problems`."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class SweepConfig:
    """Everything a rate-versus-power experiment needs."""

    node: NodeConfig = field(default_factory=NodeConfig)
    clustered: ClusteredChannelParams = field(default_factory=ClusteredChannelParams)
    si: SiChannelParams = field(default_factory=SiChannelParams)
    array_spacing_wavelengths: float = 0.5
    codebook_subsample_step: int = 1
    num_taps: int = 4
    impairments: TapImpairments = field(default_factory=TapImpairments.ideal)
    powers_dbm: tuple[float, ...] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    trials: int = 1000
    seed: int = 1
    strategy: str = "shortlist"
    shortlist_size: int = 4
    workers: int = 1
    output: str = "sweep.csv"


_DEFAULT = SweepConfig()

# (requirement, predicate) pairs; a float key's check also rejects NaN and inf
_FINITE = ("must be finite", math.isfinite)
_NONNEGATIVE = ("must be >= 0", lambda x: x >= 0)
_FINITE_NONNEGATIVE = ("must be finite and >= 0", lambda x: math.isfinite(x) and x >= 0)
_AT_LEAST_1 = ("must be >= 1", lambda x: x >= 1)
# bounds within which the channel draws and every product of them a design
# forms stay finite, at any power the powers check admits
_PATHLOSS = ("must lie in [-300, 1000] dB", lambda x: -300.0 <= x <= 1000.0)
_SPACING = ("must lie in (0, 1e6] wavelengths", lambda x: 0.0 < x <= 1e6)
_DISTANCE = (f"must lie in [{MIN_SI_DISTANCE_WAVELENGTHS:g}, 1e6] wavelengths",
             lambda x: MIN_SI_DISTANCE_WAVELENGTHS <= x <= 1e6)

# dotted key -> (SweepConfig section, or None for a top-level field; field
# name; check).  The key's type and default are those of the field in
# SweepConfig().  Node keys are checked by NodeConfig.validate and
# canceller.taps against the chain counts, so their checks are None.
_SCHEMA = {
    "node.tx_antennas": ("node", "tx_antennas", None),
    "node.rx_antennas": ("node", "rx_antennas", None),
    "node.tx_chains": ("node", "tx_chains", None),
    "node.rx_chains": ("node", "rx_chains", None),
    "node.dl_rx_antennas": ("node", "dl_rx_antennas", None),
    "node.ul_tx_antennas": ("node", "ul_tx_antennas", None),
    "node.rx_noise_dbm": ("node", "rx_noise_dbm", None),
    "node.dl_rx_noise_dbm": ("node", "dl_rx_noise_dbm", None),
    "node.si_budget_dbm": ("node", "si_budget_dbm", None),
    "array.spacing_wavelengths": (None, "array_spacing_wavelengths", _SPACING),
    "channel.clusters": ("clustered", "num_clusters", _AT_LEAST_1),
    "channel.rays": ("clustered", "rays_per_cluster", _AT_LEAST_1),
    "channel.angle_spread_rad": ("clustered", "angle_spread_rad", _FINITE_NONNEGATIVE),
    "channel.pathloss_db": ("clustered", "pathloss_db", _PATHLOSS),
    # +inf is a pure line-of-sight loopback
    "si.k_factor_db": ("si", "k_factor_db", (
        "must lie in [-300, 300] dB or be inf", lambda x: -300.0 <= x <= 300.0 or x == math.inf,
    )),
    "si.pathloss_db": ("si", "pathloss_db", _PATHLOSS),
    "si.distance_wavelengths": ("si", "tx_rx_distance_wavelengths", _DISTANCE),
    "si.angle_rad": ("si", "tx_rx_angle_rad", _FINITE),
    "codebook.subsample_step": (None, "codebook_subsample_step", _AT_LEAST_1),
    "canceller.taps": (None, "num_taps", None),
    "canceller.impaired": ("impairments", "enabled", None),
    "canceller.attenuation_step_db": ("impairments", "attenuation_step_db", (
        f"must be 0 or lie in [{MIN_ATTENUATION_STEP_DB:g}, {MAX_ATTENUATION_STEP_DB:g}]",
        lambda x: x == 0.0 or MIN_ATTENUATION_STEP_DB <= x <= MAX_ATTENUATION_STEP_DB,
    )),
    "canceller.phase_bits": ("impairments", "phase_bits", (
        f"must lie in 0..{MAX_PHASE_BITS}", lambda bits: 0 <= bits <= MAX_PHASE_BITS,
    )),
    "sweep.powers_dbm": (None, "powers_dbm", (
        f"must be a nonempty list of values in [-{DBM_LIMIT:g}, {DBM_LIMIT:g}]",
        lambda powers: all(-DBM_LIMIT <= p <= DBM_LIMIT for p in powers),
    )),
    "sweep.trials": (None, "trials", _AT_LEAST_1),
    "sweep.seed": (None, "seed", _NONNEGATIVE),
    "sweep.strategy": (None, "strategy", (
        "must be 'shortlist' or 'exhaustive'", lambda s: s in ("shortlist", "exhaustive"),
    )),
    "sweep.shortlist": (None, "shortlist_size", _AT_LEAST_1),
    "sweep.workers": (None, "workers", _AT_LEAST_1),
    "sweep.output": (None, "output", None),
}

# top-level SweepConfig field -> its key, for with_overrides
_FIELD_KEYS = {name: key for key, (section, name, _) in _SCHEMA.items() if section is None}

_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _field_value(cfg: SweepConfig, key: str):
    section, name, _ = _SCHEMA[key]
    return getattr(cfg if section is None else getattr(cfg, section), name)


def _convert(key: str, raw, problems: list[str]):
    """`raw` -- config text or an already typed value -- as the type of the
    key's default; None, with a problem recorded, when it does not fit."""
    default = _field_value(_DEFAULT, key)
    kind = next(k for k in (bool, tuple, float, int, str) if isinstance(default, k))
    text = raw.strip() if isinstance(raw, str) else None
    try:
        if kind is bool:
            if text is not None:
                return _BOOL_WORDS[text.lower()]
            if raw in (True, False):
                return bool(raw)
        elif kind is tuple:
            items = raw if text is None else text.replace(",", " ").split()
            values = tuple(float(x) for x in items)
            if values:
                return values
        elif kind is float:
            return float(raw)
        elif kind is int:
            return operator.index(raw) if text is None else int(text)
        elif text is not None:
            return text
    except (KeyError, TypeError, ValueError):
        pass
    name = "list of float" if kind is tuple else kind.__name__
    problems.append(f"{key}: cannot parse {raw if text is None else text!r} as {name}")
    return None


def _known(key: str) -> bool:
    if key in _SCHEMA:
        return True
    warnings.warn(f"unknown config key {key!r} ignored", stacklevel=3)
    return False


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value format into a {key: typed value} dict."""
    values: dict = {}
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if _known(key):
            converted = _convert(key, raw, problems)
            if converted is not None:
                values[key] = converted
    if problems:
        raise ConfigError(problems)
    return values


def config_from_values(v: dict) -> SweepConfig:
    """Build a validated SweepConfig from {key: value}; values may be config
    text or typed, and the dataclass defaults fill omitted keys."""
    problems: list[str] = []
    full = {key: _field_value(_DEFAULT, key) for key in _SCHEMA}
    for key, raw in v.items():
        if _known(key):
            full[key] = _convert(key, raw, problems)
    if problems:
        raise ConfigError(problems)

    sections: dict = {}
    for key, (section, name, check) in _SCHEMA.items():
        sections.setdefault(section, {})[name] = full[key]
        if check is not None and not check[1](full[key]):
            problems.append(f"{key} {check[0]}")
    node = replace(_DEFAULT.node, **sections.pop("node"))
    problems.extend(node.validate())
    max_taps = node.tx_chains * node.rx_chains
    if not 0 <= full["canceller.taps"] <= max_taps:
        problems.append(f"canceller.taps must lie in 0..{max_taps} (tx_chains * rx_chains)")
    if problems:
        raise ConfigError(problems)
    parts = {section: replace(getattr(_DEFAULT, section), **fields)
             for section, fields in sections.items() if section is not None}
    return replace(_DEFAULT, node=node, **parts, **sections[None])


def load_config(path) -> SweepConfig:
    """Read, parse and validate a config file.

    I/O failures propagate as :class:`OSError`; content problems raise
    :class:`ConfigError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return config_from_values(parse_config_text(text))


def with_overrides(cfg: SweepConfig, **kwargs) -> SweepConfig:
    """Replace top-level fields (None keeps a field; CLI flags pass their
    text) and validate the result like any other config."""
    unknown = kwargs.keys() - _FIELD_KEYS.keys()
    if unknown:
        raise TypeError(f"not an overridable SweepConfig field: {', '.join(sorted(unknown))}")
    values = {key: _field_value(cfg, key) for key in _SCHEMA}
    values.update({_FIELD_KEYS[name]: value for name, value in kwargs.items() if value is not None})
    return config_from_values(values)
