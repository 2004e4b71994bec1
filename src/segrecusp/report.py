"""Configuration loading and canonical JSON reporting.

Rationals serialize as "p/q" strings, points as 5-element homogeneous
arrays, and floats through their shortest round-trip representation; key
order is sorted so a report is byte-identical across runs with one seed.
"""

from __future__ import annotations

import json

from .errors import ConfigError, ValidationFailure
from .fields import parse_rational
from .pencil import QuadricPencil, SegreSymbol, normal_form, validate_segre
from .surface import SurfaceInstance

SCHEMA_VERSION = 1


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def fmt_complex(z) -> str:
    zr, zi = float(z.real), float(z.imag)
    return f"{zr!r}{'+' if zi >= 0 else '-'}{abs(zi)!r}j"


def point_payload(point):
    return [point.field.fmt(c) for c in point.coords]


def line_payload(line):
    if line.exactness == "exact":
        span = [point_payload(line.point_a), point_payload(line.point_b)]
    else:
        span = [[fmt_complex(c) for c in line.point_a],
                [fmt_complex(c) for c in line.point_b]]
    return {
        "span": span,
        "exactness": line.exactness,
        "residual_bound": repr(float(line.residual_bound)),
        "incidence": line.n_incident,
    }


# --------------------------------------------------------------------------
# configuration


CONFIG_KEYS = ("symbol", "params", "quadrics", "seed")


class SurfaceConfig:
    """Parsed surface description plus its seed."""

    def __init__(self, raw):
        self.raw = raw
        unknown = [k for k in raw if k not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                f"expected {', '.join(CONFIG_KEYS)}")
        self.seed = raw.get("seed", 0)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(
                f"\"seed\" must be an integer, got {self.seed!r}")
        self.symbol = None
        self.params = None
        self.quadrics = None
        if "symbol" in raw:
            if not isinstance(raw["symbol"], str):
                raise ConfigError(
                    f"\"symbol\" must be a string, got {raw['symbol']!r}")
            try:
                self.symbol = SegreSymbol.parse(raw["symbol"])
            except ValueError as exc:
                raise ConfigError(f"bad symbol: {exc}") from exc
            params = raw.get("params")
            if not isinstance(params, (list, dict)):
                raise ConfigError("symbol input needs \"params\", a list or "
                                  f"an object, got {params!r}")
            try:
                if isinstance(params, dict):
                    self.params = {k: parse_rational(v) for k, v in params.items()}
                else:
                    self.params = [parse_rational(v) for v in params]
            except Exception as exc:
                raise ConfigError(f"bad rational in params: {exc}") from exc
        elif "quadrics" in raw:
            mats = raw["quadrics"]
            if not (isinstance(mats, list) and len(mats) == 2):
                raise ConfigError("\"quadrics\" must hold two 5x5 matrices")
            out = []
            for M in mats:
                if not (isinstance(M, list) and len(M) == 5) or any(
                        not isinstance(r, list) or len(r) != 5 for r in M):
                    raise ConfigError("quadric matrices must be 5x5")
                try:
                    rows = [[parse_rational(c) for c in r] for r in M]
                except Exception as exc:
                    raise ConfigError(f"bad rational entry: {exc}") from exc
                if any(rows[i][j] != rows[j][i] for i in range(5) for j in range(5)):
                    raise ConfigError("quadric matrices must be symmetric")
                out.append(rows)
            self.quadrics = out
        else:
            raise ConfigError("config needs \"symbol\" or \"quadrics\"")

    @staticmethod
    def load(path) -> "SurfaceConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return SurfaceConfig(raw)

    def build(self) -> SurfaceInstance:
        try:
            if self.symbol is not None:
                pencil = normal_form(self.symbol, self.params)
            else:
                pencil = QuadricPencil(*self.quadrics)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        report = validate_segre(pencil)
        if not report.ok:
            raise ValidationFailure(
                f"surface validation failed: {report.failures}", report=report)
        return SurfaceInstance(pencil, seed=self.seed)

    def echo(self):
        return self.raw


def load_surface_config(path) -> SurfaceInstance:
    return SurfaceConfig.load(path).build()
