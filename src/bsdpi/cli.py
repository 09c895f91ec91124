"""Command line harness.

Subcommands:
  divergence  -- print every divergence of a state pair plus the quadrature check
  bounds      -- run a bound campaign from flags or a JSON config, write CSV
  certify     -- equality-condition report for (sigma, rho, channel) files
  selftest    -- reduced-count run of the full acceptance battery
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields

from . import campaigns
from .bounds import InstanceAnalysis
from .channels import load_channel
from .divergences import (
    FDivFamily,
    bs_entropy,
    bs_entropy_quadrature,
    family_from_tag,
    maximal_f,
    regularized_divergence,
    relative_entropy,
    standard_f,
)
from .errors import ConfigError, NoConvergence, NumericsError, SingularState
from .linalg import set_eig_corruption
from .recovery import equality_residuals
from .sampling import CHANNEL_KINDS
from .states import OutputFile, StatePair, load_state, read_input

# the tolerances cmd_bounds reads; a config may override these and no other
TOLERANCE_KEYS = ("dpi_abs", "slack_rel", "slack_abs")
DEFAULT_DIMS = (2, 3, 4)
# the CampaignConfig field of each bounds flag; a config file sets these
# fields itself, so the flags are refused next to --config
CAMPAIGN_FLAGS = {"seed": "seed", "trials": "trials", "dims": "dims",
                  "channel": "channel_kind", "family": "families"}


@dataclass
class CampaignConfig:
    seed: int = 7
    trials: int = 500
    dims: tuple | None = None  # None: DEFAULT_DIMS; partial_trace takes none
    channel_kind: str = "random_cptp"
    families: tuple = ("xlogx",)
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None

    def __post_init__(self):
        _integer("seed", self.seed, 0)
        _integer("trials", self.trials, 1)
        if self.channel_kind not in CHANNEL_KINDS:
            raise ConfigError(f"unknown channel_kind {self.channel_kind!r}")
        if self.channel_kind == "partial_trace" and self.dims is not None:
            drawn = sorted({d_keep * s for d_keep, s in campaigns.PARTIAL_TRACE_SHAPES})
            raise ConfigError(
                f"partial_trace draws its own dimensions {drawn} and takes no dims"
            )
        if self.dims is None:
            self.dims = DEFAULT_DIMS
        if not self.dims:
            raise ConfigError("dims must all be >= 2")
        for d in self.dims:
            _integer("each of dims", d, 2)
        seen = {}
        self.fams = []  # the parsed families, handed to MaxfCheck
        for tag in self.families:
            if not isinstance(tag, str):
                raise ConfigError(f"families must be tag strings, got {tag!r}")
            fam = _family(tag)
            if fam.measure_c is None or fam.measure_alpha is None:
                raise ConfigError(
                    f"family {tag!r} has no measure constants; bounds takes xlogx "
                    "and neg_power:<beta> with beta in (0, 1)"
                )
            if fam.tag in seen:
                raise ConfigError(f"families {seen[fam.tag]!r} and {tag!r} are both {fam.tag}")
            seen[fam.tag] = tag
            self.fams.append(fam)
        if not isinstance(self.tolerances, dict):
            raise ConfigError(f"tolerances must be an object, got {self.tolerances!r}")
        for key, value in self.tolerances.items():
            if key not in TOLERANCE_KEYS:
                raise ConfigError(f"unknown tolerance key {key!r}; bounds reads {TOLERANCE_KEYS}")
            _tolerance(key, value)
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("dims", "families"):
            if key in obj:
                if not isinstance(obj[key], list):
                    raise ConfigError(f"{key} must be a list, got {obj[key]!r}")
                obj[key] = tuple(obj[key])
        return cls(**obj)

    def tol(self, key: str) -> float:
        """The effective tolerance: the config's override or the default."""
        return float(self.tolerances.get(key, campaigns.DEFAULT_TOLERANCES[key]))


def _integer(name: str, value, low: int) -> None:
    """ConfigError unless ``value`` is an int, and not a bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def _tolerance(key: str, value) -> float:
    """A tolerance: a finite, nonnegative number.  NaN or inf would switch
    every violation check off, a negative value would fail every row."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ConfigError(f"tolerance {key!r} must be a finite number >= 0, got {value!r}")
    return value


def _family(tag: str) -> FDivFamily:
    """family_from_tag, with an unknown or malformed tag a ConfigError."""
    try:
        return family_from_tag(tag)
    except ValueError as exc:
        raise ConfigError(f"unknown family {tag!r}") from exc


def _parse_dims(items) -> tuple:
    try:
        return tuple(int(d) for d in items)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dims must be integers, got {items!r}") from exc


def cmd_divergence(args) -> int:
    sigma = load_state(args.sigma)
    rho = load_state(args.rho)
    fam = _family(args.family)
    pair = StatePair(sigma, rho)  # one decomposition per matrix for every value
    d = relative_entropy(pair)
    bs = bs_entropy(pair)
    try:
        s_f = standard_f(pair, fam)
        m_f = maximal_f(pair, fam)
        route = "direct"
    except SingularState:
        s_f = regularized_divergence(pair, fam, kind="standard").value
        m_f = regularized_divergence(pair, fam, kind="maximal").value
        route = "regularized"
    print(f"relative_entropy      = {d!r}")
    print(f"bs_entropy            = {bs!r}")
    print(f"standard_f[{fam.tag}] = {s_f!r} ({route})")
    print(f"maximal_f[{fam.tag}]  = {m_f!r} ({route})")
    try:
        quad = bs_entropy_quadrature(pair, tol=1e-8)
        print(f"bs_quadrature         = {quad!r}  |delta| = {abs(quad - bs):.3e}")
    except SingularState:
        print("bs_quadrature         = skipped (rank-deficient input)")
    except NoConvergence as exc:
        # an unresolved oracle is a finding about the oracle, not a bad input
        print(f"bs_quadrature         = unresolved (NoConvergence: {exc})")
    return 0


def cmd_bounds(args) -> int:
    given = {flag: value for flag in CAMPAIGN_FLAGS if (value := getattr(args, flag)) is not None}
    if args.config:
        if given:
            flags = ", ".join(f"--{flag}" for flag in given)
            raise ConfigError(f"--config takes no {flags}; set them in the config file")
        config = CampaignConfig.from_json(read_input(args.config, "config"))
    else:
        if "dims" in given:
            given["dims"] = _parse_dims(given["dims"].split(","))
        if "family" in given:
            given["family"] = tuple(given["family"].split(","))
        config = CampaignConfig(**{CAMPAIGN_FLAGS[flag]: value for flag, value in given.items()})
    if args.out:
        config.output_path = args.out
    if getattr(args, "tol", None) is not None:
        config.tolerances["slack_rel"] = _tolerance("slack_rel", args.tol)

    kind = config.channel_kind
    include_standard_dpi = getattr(args, "include_standard_dpi", False)
    if kind == "random_cptp":
        if include_standard_dpi:
            raise ConfigError(
                "--include-standard-dpi compares against conditional expectations; "
                "use it with --channel pinching, partial_trace or subalgebra"
            )
        checks = [
            campaigns.DpiCheck(config.tol("dpi_abs")),
            campaigns.BoundCheck("bs_channel", config.tol("slack_rel")),
        ]
    else:
        checks = [
            campaigns.BoundCheck(
                f"bs_{kind}", config.tol("slack_rel"),
                include_standard_row=include_standard_dpi,
            )
        ]
    maxf = None
    if config.families:
        maxf = campaigns.MaxfCheck(tuple(config.fams), config.tol("slack_abs"))
        checks.append(maxf)
    # opened before the first trial, so an unwritable path is refused there;
    # nothing is cut until the CSV is written, or the run raises
    path = config.output_path
    with OutputFile(path) if path else contextlib.nullcontext() as out:
        campaigns.evaluate(config.seed, config.trials, config.dims, kind, checks)
        rows = [row for check in checks for row in check.rows]
        if out is not None:
            campaigns.write_csv(out, rows)
    if maxf is not None:
        for tag, rate in maxf.pass_rates.items():
            print(f"precondition pass-rate [{tag}]: {rate:.3f}")

    violations = [v for check in checks for v in check.summary.violations]
    total = sum(check.summary.total for check in checks)
    min_slack = min(check.summary.min_slack for check in checks)
    if path:
        print(f"wrote {len(rows)} rows to {path}")
    print(f"total={total} violations={len(violations)} min_slack={min_slack!r}")
    for seed, message in violations[:20]:
        print(f"VIOLATION seed={seed}: {message}")
    return 0 if not violations else 1


def cmd_certify(args) -> int:
    sigma = load_state(args.sigma)
    rho = load_state(args.rho)
    channel = load_channel(args.channel)
    report = equality_residuals(InstanceAnalysis(sigma, rho, channel))
    text = report.to_json()
    if args.out:
        with OutputFile(args.out) as out:
            out.write(text)
    print(text)
    threshold = 1e-8 * (1.0 + report.gamma_sup)
    equal = (
        report.residual_eq2 <= threshold
        and report.residual_eq3 <= threshold
        and report.residual_bs_recovery <= threshold
    )
    print(f"threshold = {threshold:.3e}")
    print("EQUALITY" if equal else "NO-EQUALITY")
    return 0


def cmd_selftest(args) -> int:
    _integer("seed", args.seed, 0)
    started = time.time()
    failures = 0
    set_eig_corruption(1e-6 if args.inject_eig_corruption else 0.0)
    try:
        for criterion in campaigns.CRITERIA:
            ok, line = criterion.run(args.seed, reduced=True)
            print(line)
            failures += not ok
    finally:
        set_eig_corruption(0.0)
    print(f"selftest finished in {time.time() - started:.1f} s, failures: {failures}")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsdpi",
        description="divergence computations, bound campaigns, and equality certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="print divergences of a state pair")
    p.add_argument("sigma")
    p.add_argument("rho")
    p.add_argument("--family", default="xlogx")
    p.set_defaults(fn=cmd_divergence)

    p = sub.add_parser("bounds", help="run a bound campaign and write CSV")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--dims",
                   help="comma-separated dimensions (default 2,3,4); not for partial_trace")
    p.add_argument("--channel", choices=CHANNEL_KINDS)
    p.add_argument("--family", help="comma-separated maximal-f families")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="override the relative slack tolerance")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--include-standard-dpi", action="store_true",
                   help="emit informational relative-entropy comparison rows")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("certify", help="equality-condition report for a triple")
    p.add_argument("sigma")
    p.add_argument("rho")
    p.add_argument("channel")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("selftest", help="reduced-count acceptance battery")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--inject-eig-corruption", action="store_true",
                   help="perturb the eigensolver to prove the battery detects it")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
