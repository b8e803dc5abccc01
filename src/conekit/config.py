"""Run configuration: INI parsing, validation, defaults, manifest round-trip.

A run is described by four sections — [geometry], [dynamics], [norms],
[experiment] — with every key optional (defaults below).  Unknown sections or
keys are hard errors that name the offender.  The manifest written next to
run outputs is the same INI dialect with every default made explicit plus a
[meta] section (tool, version, command, timestamp), and parses back into an
equal configuration.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import __version__
from .dynamics import StepperConfig
from .geometry import (PROFILE_KINDS, SurfaceProfile, boundary_spectrum, build_mesh,
                       build_profile, exact_number)
from .indicial import ch_gamma_window
from .operators import ModeOperators

__all__ = ["ConfigError", "RunConfig", "parse_config", "default_config_text",
           "validate_gamma", "manifest_text"]


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, or weight out of window."""


def _parse_bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(_parse_finite(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())


def _parse_pairs(raw: str) -> tuple[tuple[int, float], ...]:
    """Parse "s,gamma;s,gamma" into ((s, gamma), ...)."""
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"norm pair {chunk!r} is not 's,gamma'")
        out.append((int(parts[0]), _parse_finite(parts[1])))
    return tuple(out)


@dataclass
class GeometrySection:
    kind: str = "cone_capped"
    c: str = "1/2"
    radius: float = 1.0
    L: float = 2.0
    M: int = 256
    q: float = 0.85
    K: int = 32

    def build_profile(self) -> SurfaceProfile:
        if self.kind == "sphere":
            return build_profile("sphere", radius=self.radius)
        return build_profile("cone_capped", c=self.c, length=self.L)

    def build_workspace(self) -> ModeOperators:
        return ModeOperators(build_mesh(self.build_profile(), self.M, self.q), self.K)


@dataclass
class DynamicsSection:
    dt: float = 1.0e-3
    S: float = 2.0
    T_max: float = 1000.0
    eq_tol: float = 1.0e-8
    snapshot_stride: int = 100

    def stepper(self, gamma: float) -> StepperConfig:
        return StepperConfig(dt=self.dt, stabilization=self.S, t_max=self.T_max,
                             eq_tol=self.eq_tol, snapshot_stride=self.snapshot_stride,
                             mellin_gamma=gamma)


@dataclass
class NormsSection:
    gamma: float = -0.75
    pairs: tuple[tuple[int, float], ...] = ((0, -0.75), (1, -0.75))


@dataclass
class ExperimentSection:
    seed: int = 0
    ic: str = "random_mean_zero"
    amplitude: float = 0.1
    mean: float = 0.0
    snapshots: bool = True
    radii: tuple[float, ...] = (0.5, 1.0)   # dual radii whose fields the default S = 2 step handles
    seeds_per_radius: int = 4
    modes: tuple[int, ...] = (1, 2)
    n_eigs: int = 8


@dataclass
class RunConfig:
    geometry: GeometrySection = field(default_factory=GeometrySection)
    dynamics: DynamicsSection = field(default_factory=DynamicsSection)
    norms: NormsSection = field(default_factory=NormsSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)


_SECTIONS = tuple(f.name for f in fields(RunConfig))

# the codec, (parser, formatter), of a key by its field's annotation or, where its text is not
# its type's, by its name; parsers raise ValueError on bad input
_CODECS = {
    "float": (_parse_finite, lambda v: format(v, ".17g")),
    "int": (int, str),
    "str": (str, str),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "c": (lambda s: str(Fraction(s)), str),
    "pairs": (_parse_pairs, lambda v: ";".join(f"{s},{format(g, '.17g')}" for s, g in v)),
    "radii": (_parse_float_list, lambda v: ",".join(format(x, ".17g") for x in v)),
    "modes": (_parse_int_list, lambda v: ",".join(str(x) for x in v)),
}
# (section, key) -> codec, in section and field order
_FIELDS = {(sec.name, f.name): _CODECS.get(f.name) or _CODECS[f.type]
           for sec in fields(RunConfig) for f in fields(sec.default_factory)}
_VALID_ICS = ("random_mean_zero", "random", "constant")


def _new_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (M, K, S, T_max, ...)
    return cp


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a validated RunConfig (a [meta] section is ignored)."""
    cp = _new_parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from exc
    cfg = RunConfig()
    for section in cp.sections():
        if section == "meta":
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown configuration section [{section}]")
        target = getattr(cfg, section)
        for key, raw in cp.items(section):
            spec = _FIELDS.get((section, key))
            if spec is None:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            parser_fn, _ = spec
            try:
                setattr(target, key, parser_fn(raw))
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    g = cfg.geometry
    if g.kind not in PROFILE_KINDS:
        raise ConfigError(f"[geometry] kind must be one of {PROFILE_KINDS}, got {g.kind!r}")
    if g.kind != "sphere":
        c = exact_number(g.c)
        if not (0 < c <= 1):
            raise ConfigError(f"[geometry] c must lie in (0, 1], got {g.c}")
    if g.kind == "sphere" and g.radius <= 0:
        raise ConfigError("[geometry] radius must be positive")
    if g.kind != "sphere" and g.L <= 0:
        raise ConfigError("[geometry] L must be positive")
    if g.M < 4:
        raise ConfigError("[geometry] M must be at least 4")
    if not (0 < g.q <= 1):
        raise ConfigError(f"[geometry] q must lie in (0, 1], got {g.q}")
    if g.K < 1:
        raise ConfigError("[geometry] K must be at least 1")
    d = cfg.dynamics
    if d.dt <= 0:
        raise ConfigError("[dynamics] dt must be positive")
    if d.S < 0:
        raise ConfigError("[dynamics] S must be >= 0")
    if d.T_max <= 0:
        raise ConfigError("[dynamics] T_max must be positive")
    if d.eq_tol < 0:
        raise ConfigError("[dynamics] eq_tol must be >= 0")
    if d.snapshot_stride < 1:
        raise ConfigError("[dynamics] snapshot_stride must be >= 1")
    for s, _gamma in cfg.norms.pairs:
        if s not in (0, 1, 2):
            raise ConfigError(f"[norms] pairs: order s must be 0, 1 or 2, got {s}")
    e = cfg.experiment
    if e.ic not in _VALID_ICS:
        raise ConfigError(f"[experiment] ic must be one of {_VALID_ICS}, got {e.ic!r}")
    if e.ic == "random_mean_zero" and e.mean != 0.0:
        raise ConfigError(f"[experiment] mean must be 0 for ic = random_mean_zero, got {e.mean:g}")
    if e.amplitude < 0:
        raise ConfigError(f"[experiment] amplitude must be >= 0, got {e.amplitude:g}")
    if e.seeds_per_radius < 1:
        raise ConfigError("[experiment] seeds_per_radius must be >= 1")
    if e.seed < 0:
        raise ConfigError("[experiment] seed must be >= 0")
    if any(k < 0 for k in e.modes) or len(set(e.modes)) < len(e.modes):
        raise ConfigError(f"[experiment] modes must be >= 0 and distinct, got {e.modes}")
    if e.n_eigs < 1:
        raise ConfigError("[experiment] n_eigs must be >= 1")
    if not e.radii:
        raise ConfigError("[experiment] radii must not be empty")
    if min(e.radii) <= 0 or len(set(e.radii)) < len(e.radii):
        raise ConfigError(f"[experiment] radii must be positive and distinct, got {e.radii}")
    if not e.modes:
        raise ConfigError("[experiment] modes must not be empty")


def validate_gamma(cfg: RunConfig, allow_out_of_window: bool = False):
    """Check every configured weight against the admissible window of the geometry.

    The window depends on the tip slope through the first cross-section
    eigenvalue; a weight on or outside the boundary is rejected unless
    explicitly overridden.
    """
    if allow_out_of_window:
        return
    profile = cfg.geometry.build_profile()
    window = ch_gamma_window(boundary_spectrum(profile, 1)[1][1])
    gammas = [("[norms] gamma", cfg.norms.gamma)]
    gammas += [(f"[norms] pairs entry {i}", gm) for i, (_s, gm) in enumerate(cfg.norms.pairs)]
    for label, gamma in gammas:
        if not window.contains(exact_number(gamma)):
            raise ConfigError(
                f"{label}: weight {gamma:g} lies outside the admissible window {window} "
                f"for tip slope {profile.tip_slope}; use --allow-out-of-window to override")


def _render(cfg: RunConfig, extra_meta: dict | None = None) -> str:
    cp = _new_parser()
    if extra_meta:
        cp.add_section("meta")
        for k, v in extra_meta.items():
            cp.set("meta", k, str(v))
    for section in _SECTIONS:
        cp.add_section(section)
    for (section, key), (_p, fmt) in _FIELDS.items():
        cp.set(section, key, fmt(getattr(getattr(cfg, section), key)))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def default_config_text() -> str:
    """The full default configuration as INI text (a starting point for edits)."""
    return _render(RunConfig())


def manifest_text(cfg: RunConfig, command: str, timestamp: str) -> str:
    """Manifest INI: full configuration echo plus a [meta] block."""
    return _render(cfg, extra_meta={"tool": "conekit", "version": __version__,
                                    "command": command, "created": timestamp})
