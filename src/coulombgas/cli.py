"""Command line front end.

Subcommands: droplet, equilibrium, zw, norm, exact, expand, oracle, lemmas,
converge.  Potentials are chosen with --potential ginibre|ml|tu plus the
family's parameters.  Output formats: text (key=value lines, %.17g floats),
csv (key,value rows; converge emits its table schema), json.  Exit codes:
0 success, 2 usage (an --out path that cannot be written included), 3
domain or invalid-potential errors, 4 solver or quadrature failures.  A
usage error found after parsing prints its subcommand's usage, and a
package error gets its context from errors._named.  The parser is built
on the first main() call and reused by every later call in the same
process.
"""

import argparse
import functools
import json
import math
import sys

from . import __version__
from .droplet import droplet_of
from .equilibrium import _zw, equilibrium_report
from .errors import DomainError, IntegrationError, InvalidPotentialError, SolverError, _named
from .norms import (
    NormQuery,
    log_norm_exact,
    log_norm_laplace,
    log_norm_lowdeg,
)
from .oracles import ml_log_z, tu_log_z
from .partition import (
    _LEMMA_VARIANTS,
    convergence_study,
    expansion_terms,
    lemma_sum,
    log_z_exact,
)
from .potential import _ENSEMBLES, Ginibre, MittagLeffler, TruncatedUnitary

# family -> (class, ((flag, keyword, help, default), ...)); a parameter
# whose default is None is required.
_FAMILIES = {
    "ginibre": (Ginibre, (("--scale", "scale", "ginibre: length scale (default 1)", 1.0),)),
    "ml": (MittagLeffler, (("--lambda", "lam", "ml: power-law exponent", None),
                           ("--c", "c", "ml: logarithmic repulsion strength", None))),
    "tu": (TruncatedUnitary, (("--alpha", "alpha", "tu: hard-wall exponent", None),
                              ("--R", "R", "tu: droplet radius", None))),
}

_NORM_METHODS = {"exact": log_norm_exact, "laplace": log_norm_laplace, "lowdeg": log_norm_lowdeg}


def _add_potential_flags(sub):
    sub.add_argument(
        "--potential", required=True, choices=tuple(_FAMILIES),
        help="potential family",
    )
    for _, params in _FAMILIES.values():
        for flag, key, help_text, _ in params:
            sub.add_argument(flag, dest=key, type=float, default=None, help=help_text)


def _add_output_flags(sub):
    sub.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                     default="text", help="output format (default text)")
    sub.add_argument("--out", default=None,
                     help="write the primary output to this file instead of stdout")


def _make_potential(args):
    fam = args.potential
    cls, params = _FAMILIES[fam]
    for other, (_, others) in _FAMILIES.items():
        for flag, key, _, _ in others:
            if other != fam and getattr(args, key) is not None:
                args.parser.error(f"{flag} does not apply to --potential {fam}")
    kwargs = {key: default if getattr(args, key) is None else getattr(args, key)
              for _, key, _, default in params}
    if None in kwargs.values():
        required = " and ".join(flag for flag, _, _, default in params if default is None)
        args.parser.error(f"--potential {fam} requires {required}")
    return cls(**kwargs)


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
    zw, residuals = _zw(p)
    pairs = [("f0", zw.f0), ("f_half", zw.f_half), ("f1", zw.f1)]
    pairs += zip(("residual_energy", "residual_entropy", "residual_f_term"), residuals)
    return _render(pairs, args.fmt)


@_named(lambda args: (f"n={args.N}", f"j={args.j}", f"ensemble={args.ensemble}"))
def _cmd_norm(p, args):
    query = NormQuery(n=args.N, j=args.j, ensemble=args.ensemble)
    val = _NORM_METHODS[args.method](p, query)
    if args.fmt == "text":
        return _fmt_text(float(val))
    return _render([("log_norm", float(val))], args.fmt)


def _cmd_exact(p, args):
    val = log_z_exact(p, args.N, args.ensemble)
    return _render([("log_z", val)], args.fmt)


@_named()
def _cmd_expand(p, args):
    terms = expansion_terms(p, args.ensemble)
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


@_named(lambda args: (f"n={args.N}", f"ensemble={args.ensemble}"))
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
    table = convergence_study(p, args.Ns, args.ensemble)
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


def _sizes(text):
    """The --Ns list; argparse reports a non-integer entry as a usage error."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects a comma-separated integer list, got {text!r}") from None


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coulombgas",
        description="Log-partition functions of planar Coulomb gases with radial potentials",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def new_sub(name, help_text, needs_ensemble=False, needs_n=False, needs_threads=False):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(parser=sub)
        _add_potential_flags(sub)
        _add_output_flags(sub)
        if needs_n:
            sub.add_argument("--N", type=int, required=True, help="matrix size")
        if needs_ensemble:
            sub.add_argument("--ensemble", choices=_ENSEMBLES,
                             default="normal", help="ensemble (default normal)")
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
    norm.add_argument("--method", choices=tuple(_NORM_METHODS),
                      default="exact", help="evaluation route (default exact)")
    norm.set_defaults(handler=_cmd_norm)

    new_sub("exact", "log Z by norm quadrature", needs_ensemble=True, needs_n=True,
            needs_threads=True).set_defaults(handler=_cmd_exact)

    expand = new_sub("expand", "five-term expansion value", needs_ensemble=True, needs_n=True)
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
                       needs_ensemble=True, needs_threads=True)
    converge.add_argument("--Ns", required=True, type=_sizes,
                          help="comma-separated matrix sizes, e.g. 100,200,400")
    converge.set_defaults(handler=_cmd_converge)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(_make_potential(args), args)
    except (DomainError, InvalidPotentialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SolverError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        _emit(payload, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
