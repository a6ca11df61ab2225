"""Command line front end.

Subcommands: droplet, equilibrium, zw, norm, exact, expand, oracle, lemmas,
converge.  Potentials are chosen with --potential ginibre|ml|tu plus the
family's parameters.  Output formats: text (key=value lines, %.17g floats),
csv (key,value rows; converge emits its table schema), json.  Exit codes:
0 success, 2 usage, 3 domain or invalid-potential errors, 4 solver or
quadrature failures.  The parser is built on the first main() call and
reused by every later call in the same process.
"""

import argparse
import functools
import json
import math
import sys

from . import __version__
from .droplet import droplet_of
from .equilibrium import (
    energy,
    entropy,
    equilibrium_report,
    f_disc,
    zw_coefficients,
)
from .errors import (
    DomainError,
    IntegrationError,
    InvalidPotentialError,
    SolverError,
)
from .norms import (
    NormQuery,
    log_norm_exact,
    log_norm_highdeg,
    log_norm_laplace,
    log_norm_lowdeg,
)
from .oracles import ml_log_z, tu_log_z
from .partition import (
    _CONVENTIONS,
    _LEMMA_VARIANTS,
    convergence_study,
    expansion_terms,
    lemma_sum,
    log_z_exact,
)
from .potential import _ENSEMBLES, Ginibre, MittagLeffler, TruncatedUnitary
from .specialfn import ln_factorial

_FAMILY_FLAGS = {
    "ginibre": ("scale",),
    "ml": ("lam", "c"),
    "tu": ("alpha", "R"),
}


def _add_potential_flags(sub):
    sub.add_argument(
        "--potential", required=True, choices=tuple(_FAMILY_FLAGS),
        help="potential family",
    )
    sub.add_argument("--scale", type=float, default=None,
                     help="ginibre: length scale (default 1)")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="ml: power-law exponent")
    sub.add_argument("--c", type=float, default=None,
                     help="ml: logarithmic repulsion strength")
    sub.add_argument("--alpha", type=float, default=None,
                     help="tu: hard-wall exponent")
    sub.add_argument("--R", type=float, default=None,
                     help="tu: droplet radius")


def _add_output_flags(sub):
    sub.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                     default="text", help="output format (default text)")
    sub.add_argument("--out", default=None,
                     help="write the primary output to this file instead of stdout")


def _make_potential(args, parser):
    fam = args.potential
    allowed = _FAMILY_FLAGS[fam]
    for flag in ("scale", "lam", "c", "alpha", "R"):
        if flag not in allowed and getattr(args, flag) is not None:
            name = "--lambda" if flag == "lam" else f"--{flag}"
            parser.error(f"{name} does not apply to --potential {fam}")
    if fam == "ginibre":
        return Ginibre(scale=1.0 if args.scale is None else args.scale)
    if fam == "ml":
        if args.lam is None or args.c is None:
            parser.error("--potential ml requires --lambda and --c")
        return MittagLeffler(args.lam, args.c)
    if args.alpha is None or args.R is None:
        parser.error("--potential tu requires --alpha and --R")
    return TruncatedUnitary(args.alpha, args.R)


def _fmt_text(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _fmt_csv(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _render(pairs, fmt, one_line=False):
    if fmt == "text":
        items = [f"{k}={_fmt_text(v)}" for k, v in pairs]
        return " ".join(items) if one_line else "\n".join(items)
    if fmt == "csv":
        return "\n".join(f"{k},{_fmt_csv(v)}" for k, v in pairs)
    return json.dumps({k: _json_value(v) for k, v in pairs})


def _emit(payload, out_path):
    if not payload.endswith("\n"):
        payload += "\n"
    if out_path is None:
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


def _cmd_droplet(p, args):
    d = droplet_of(p)
    pairs = [("r0", d.r0), ("r1", d.r1), ("kind", d.kind)]
    return _render(pairs, args.fmt, one_line=True)


def _cmd_equilibrium(p, args):
    rep = equilibrium_report(p)
    pairs = [
        ("energy", rep.energy),
        ("entropy", rep.entropy),
        ("log_potential_origin", rep.log_potential_origin),
        ("f_term", rep.f_term),
        ("r0", rep.droplet.r0),
        ("r1", rep.droplet.r1),
        ("kind", rep.droplet.kind),
    ]
    return _render(pairs, args.fmt)


def _cmd_zw(p, args):
    d = droplet_of(p)
    zw = zw_coefficients(p, d)
    pairs = [
        ("f0", zw.f0),
        ("f_half", zw.f_half),
        ("f1", zw.f1),
        ("residual_energy", zw.f0 + energy(p, d)),
        ("residual_entropy", zw.f_half + 0.5 * entropy(p, d)),
        ("residual_f_term", zw.f1 - f_disc(p, d)),
    ]
    return _render(pairs, args.fmt)


def _cmd_norm(p, args):
    query = NormQuery(n=args.N, j=args.j, ensemble=args.ensemble)
    if args.method == "exact":
        val = log_norm_exact(p, query)
    elif args.method == "laplace":
        val = log_norm_laplace(p, query)
    elif args.method == "lowdeg":
        val = log_norm_lowdeg(p, query)
    else:
        val = log_norm_highdeg(p, query)
    if args.fmt == "text":
        return _fmt_text(float(val))
    return _render([("log_norm", float(val))], args.fmt)


def _cmd_exact(p, args):
    val = log_z_exact(p, args.N, args.ensemble)
    if args.convention == "canonical":
        val -= ln_factorial(args.N)
    return _render([("log_z", val)], args.fmt)


def _cmd_expand(p, args):
    terms = expansion_terms(p, args.ensemble, args.convention)
    pairs = [("log_z_asymptotic", terms.evaluate(args.N))]
    if args.terms:
        pairs += [
            ("c_n2", terms.c_n2),
            ("c_nlogn", terms.c_nlogn),
            ("c_n", terms.c_n),
            ("c_logn", terms.c_logn),
            ("c_1", terms.c_1),
        ]
    return _render(pairs, args.fmt)


def _cmd_oracle(p, args):
    if isinstance(p, MittagLeffler):
        val = ml_log_z(p.lam, p.c, args.N, args.ensemble)
    elif isinstance(p, TruncatedUnitary):
        val = tu_log_z(p.alpha, p.R, args.N, args.ensemble)
    else:
        if p.scale != 1.0:
            raise DomainError("the closed-form route covers ginibre only at scale 1")
        val = ml_log_z(1.0, 0.0, args.N, args.ensemble)
    pairs = [("log_z_oracle", val)]
    if args.compare:
        exact = log_z_exact(p, args.N, args.ensemble)
        pairs += [("log_z_exact", exact), ("difference", exact - val)]
    return _render(pairs, args.fmt)


def _cmd_lemmas(p, args):
    direct, predicted = lemma_sum(p, args.N, args.which)
    pairs = [
        ("direct", direct),
        ("predicted", predicted),
        ("gap", direct - predicted),
    ]
    return _render(pairs, args.fmt)


def _cmd_converge(p, args):
    try:
        ns = [int(tok) for tok in args.Ns.split(",") if tok.strip()]
    except ValueError:
        _build_parser().error(f"--Ns expects a comma-separated integer list, got {args.Ns!r}")
    table = convergence_study(p, ns, args.ensemble, args.convention)
    if args.fmt == "json":
        doc = {
            "rows": [
                {
                    "N": r.n,
                    "log_z_exact": r.log_z_exact,
                    "log_z_asymptotic": r.log_z_asymptotic,
                    "residual": r.residual,
                }
                for r in table.rows
            ],
            "fitted_exponent": _json_value(table.fitted_exponent),
            "r2": _json_value(table.fit_r2),
            "underflow": table.underflow,
        }
        return json.dumps(doc)
    return table.to_csv()


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coulombgas",
        description="Log-partition functions of planar Coulomb gases with radial potentials",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def new_sub(name, help_text, needs_ensemble=False, needs_n=False,
                needs_convention=False, needs_threads=False):
        sub = subs.add_parser(name, help=help_text)
        _add_potential_flags(sub)
        _add_output_flags(sub)
        if needs_n:
            sub.add_argument("--N", type=int, required=True, help="matrix size")
        if needs_ensemble:
            sub.add_argument("--ensemble", choices=_ENSEMBLES,
                             default="normal", help="ensemble (default normal)")
        if needs_convention:
            sub.add_argument("--convention", choices=_CONVENTIONS,
                             default="physics", help="coefficient convention")
        if needs_threads:
            sub.add_argument("--threads", type=int, default=0,
                             help="accepted for compatibility and ignored: "
                                  "norms are evaluated on one thread")
        return sub

    new_sub("droplet", "droplet radii and kind").set_defaults(handler=_cmd_droplet)
    new_sub("equilibrium", "equilibrium functionals").set_defaults(handler=_cmd_equilibrium)
    new_sub("zw", "planar free-energy coefficients and their identification residuals"
            ).set_defaults(handler=_cmd_zw)

    norm = new_sub("norm", "one monomial norm", needs_ensemble=True, needs_n=True,
                   needs_threads=True)
    norm.add_argument("--j", type=int, required=True, help="monomial degree")
    norm.add_argument("--method", choices=("exact", "laplace", "lowdeg", "highdeg"),
                      default="exact", help="evaluation route (default exact)")
    norm.set_defaults(handler=_cmd_norm)

    new_sub("exact", "log Z by norm quadrature", needs_ensemble=True, needs_n=True,
            needs_convention=True, needs_threads=True).set_defaults(handler=_cmd_exact)

    expand = new_sub("expand", "five-term expansion value", needs_ensemble=True,
                     needs_n=True, needs_convention=True)
    expand.add_argument("--terms", action="store_true",
                        help="also print the five coefficients")
    expand.set_defaults(handler=_cmd_expand)

    oracle = new_sub("oracle", "closed-form log Z for the built-in families",
                     needs_ensemble=True, needs_n=True, needs_threads=True)
    oracle.add_argument("--compare", action="store_true",
                        help="also run the exact route and print the difference")
    oracle.set_defaults(handler=_cmd_oracle)

    lemmas = new_sub("lemmas", "partial-sum expansion check", needs_n=True)
    lemmas.add_argument("--which", required=True, choices=_LEMMA_VARIANTS,
                        help="which partial sum to evaluate")
    lemmas.set_defaults(handler=_cmd_lemmas)

    converge = new_sub("converge", "residual table over a size grid",
                       needs_ensemble=True, needs_convention=True, needs_threads=True)
    converge.add_argument("--Ns", required=True,
                          help="comma-separated matrix sizes, e.g. 100,200,400")
    converge.set_defaults(handler=_cmd_converge)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(_make_potential(args, parser), args)
    except (DomainError, InvalidPotentialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SolverError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    _emit(payload, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
