"""Command line interface.

Subcommands: torsion, split, circle, selftest.  Machine-readable JSON goes to
stdout, a short human summary to stderr.  Exit codes: 0 success, 2 validation
error (bad input or document, including a non-finite or boolean matrix
entry and a d or dims entry that is not a JSON integer), 3 numerical
boundary (eigenvalue on a cut, split level in a cluster, an overflowing
B^2 block, a split whose sign iteration does not converge, a split part
that fails its d.d, Gamma^2 or restriction check, singular operator, a
non-finite result, or a failed selftest).
stdout holds strict JSON (no NaN or Infinity) or nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import circle as ci
from .complexes import cohomology_frame, phi, sign_N
from .errors import SpectralBoundaryError, ValidationError
from .gradedlinalg import sign_M
from .selftest import run_selftest
from .signature import (_SPLIT_TOL, _torsion_from_split, graded_det_finite,
                        spectral_split)
from .torsion import c_gamma, refined_torsion, sign_R
from .workbench import deserialize_document

__all__ = ["main"]


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _load_chiral(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    c, g, meta = deserialize_document(text)
    if g is None:
        raise ValidationError("document carries no chirality matrices")
    return c, g, meta


def _cmd_torsion(args) -> dict:
    c, g, _ = _load_chiral(args.file)
    frame = cohomology_frame(c)
    cg = c_gamma(c, g)
    rho = phi(cg, frame)  # refined_torsion(c, g, frame), sharing cg
    out = {
        "torsion": _pair(rho.coeff),
        "betti": list(frame.betti),
        # torsion_norm(c, g): the modulus of the c_Gamma coefficient
        "torsion_norm": float(abs(cg.coeff)),
        "signs": {"N": sign_N(frame), "R": sign_R(c),
                  "M": sign_M(c.dims, c.dims)},
        "c_gamma": _pair(cg.coeff),
    }
    try:
        out["graded_det"] = _pair(graded_det_finite(c, g, frame))
    except SpectralBoundaryError:
        out["graded_det"] = None
    print(f"torsion = {rho.coeff:.12g}, betti = {tuple(frame.betti)}",
          file=sys.stderr)
    return out


def _cmd_split(args) -> dict:
    c, g, _ = _load_chiral(args.file)
    frame = cohomology_frame(c)
    split = spectral_split(c, g, args.lam)
    via, det_large, rho_small = _torsion_from_split(split, frame)
    # above the spectrum the small part is the complex itself, in frame
    rho = (rho_small if split.small.complex is c
           else refined_torsion(c, g, frame))
    residual = float(abs(via.coeff - rho.coeff) / max(abs(rho.coeff), 1e-300))
    out = {
        "lambda": args.lam,
        "d_small": [b.shape[1] for b in split.small.bases],
        "d_large": [b.shape[1] for b in split.large.bases],
        "graded_det_large": _pair(det_large),
        "torsion_via_split": _pair(via.coeff),
        "refined_torsion": _pair(rho.coeff),
        "consistency_residual": residual,
        "tolerance": _SPLIT_TOL,
        "consistent": bool(residual <= _SPLIT_TOL),
    }
    print(f"split at lambda={args.lam}: small dims {out['d_small']}, "
          f"residual {residual:.2e}", file=sys.stderr)
    return out


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValidationError(f"cannot parse complex number from {text!r}")


def _cmd_circle(args) -> dict:
    a = _parse_complex(args.a)
    m = ci.CircleModel(a, scale=args.scale)
    eta = ci.eta_circle(m)
    xi = ci.xi_circle(m)
    rho = ci.rho_an_circle(m)
    value, target = ci.rs_norm_check(m)
    out = {
        "a": _pair(a),
        "scale": m.scale,
        "eta": _pair(eta),
        "xi": _pair(xi),
        "rho_an": _pair(rho),
        "rho_closed": _pair(ci.rho_an_closed(m)),
        "rs_torsion": ci.rs_torsion_circle(m),
        "rs_norm_value": value,
        "rs_norm_target": target,
        "duality_residual": ci.duality_check(m),
    }
    print(f"a={a:.6g}: rho_an = {rho:.12g}, RS norm {value:.9g} "
          f"(target {target:.9g})", file=sys.stderr)
    return out


def _cmd_selftest(args) -> tuple[dict, bool]:
    ok, reports = run_selftest(cases=args.cases, seed=args.seed)
    for r in reports:
        mark = "pass" if r["passed"] else "FAIL"
        print(f"[{mark}] {r['name']}: {r['detail']}", file=sys.stderr)
    print(f"selftest: {sum(r['passed'] for r in reports)}/{len(reports)} "
          f"checks passed", file=sys.stderr)
    return {"passed": ok, "checks": reports}, ok


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="detline",
        description="Determinant-line torsion calculus for cochain complexes")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("torsion", help="refined torsion of a document")
    t.add_argument("file", help="JSON complex document with chirality")

    s = sub.add_parser("split", help="spectral split report")
    s.add_argument("file", help="JSON complex document with chirality")
    s.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="split level for |spec(B^2)|")

    c = sub.add_parser("circle", help="flat line bundle over the circle")
    c.add_argument("--a", required=True,
                   help="holonomy exponent, re or re,im with 0 < re < 1")
    c.add_argument("--scale", type=float, default=1.0)

    st = sub.add_parser("selftest", help="run the invariant suite")
    st.add_argument("--cases", type=int, default=40)
    st.add_argument("--seed", type=int, default=12345)
    return p


def _strict_json(out: dict) -> str:
    """JSON text of a report; a non-finite number in it is a numerical
    boundary, named by its top-level field."""
    for key, value in out.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise SpectralBoundaryError(
                f"non-finite result in field {key!r}") from None
    return json.dumps(out, allow_nan=False)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    ok = True
    try:
        if args.command in ("torsion", "split"):
            # a document's numbers may overflow; the result check below
            # reports that as a numerical boundary, so numpy need not warn
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                cmd = _cmd_torsion if args.command == "torsion" else _cmd_split
                out = cmd(args)
        elif args.command == "circle":
            out = _cmd_circle(args)
        else:
            out, ok = _cmd_selftest(args)
        text = _strict_json(out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SpectralBoundaryError as exc:
        print(f"numerical boundary: {exc}", file=sys.stderr)
        return 3
    print(text)
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
