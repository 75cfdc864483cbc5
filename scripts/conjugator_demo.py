#!/usr/bin/env python3
"""Build, verify, and exercise the two flagship conjugator certificates.

Usage: python scripts/conjugator_demo.py [--depth N] [--out DIR]
"""

import argparse
import pathlib
import time

from cantorstab import (
    DepthSchedule,
    build_conjugator,
    conjugation_suite,
    eval_limit,
    grigorchuk,
    odometer_full,
    parse_point,
    verify_certificate,
)
from cantorstab.cli import write_certificate
from cantorstab.conjugator import rist_samples


def show(cert, family, samples):
    print(f"\n=== {family.name}: {cert.x} -> {cert.y} ===")
    for s in cert.stages[1:]:
        print(f"  stage {s.index}: d={s.depth}  U={s.u}  V={s.v}  h={s.h!r}")
    start = time.monotonic()
    report = verify_certificate(cert)
    print(f"  verification: {'PASS' if report.ok else 'FAIL'} "
          f"({len(report.results)} checks, {time.monotonic() - start:.2f}s)")
    for r in report.failures():
        print(f"    {r.stage} {r.condition}: {r.status} {r.detail}")
    if samples:
        suite = conjugation_suite(cert, samples)
        print(f"  conjugation suite on {len(samples)} samples: {suite.counts()}")
    for text in ("1(0)", "(10)", "11(01)"):
        z = parse_point(text)
        value = eval_limit(cert, z)
        shown = value.point if value.exact else f"[{value.prefix}]..."
        print(f"  f({z}) = {shown}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--out", type=pathlib.Path, help="directory for certificate JSON")
    args = parser.parse_args()

    runs = [
        (grigorchuk(), "(0)", "(01)", args.depth),
        (odometer_full(), "(0)", "(1)", args.depth),
    ]
    for family, x_text, y_text, depth in runs:
        cert = build_conjugator(
            family, parse_point(x_text), parse_point(y_text), DepthSchedule.unit_steps(depth)
        )
        show(cert, family, rist_samples(family, cert, 20))
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"{family.name}-{depth}.json"
            write_certificate(str(path), cert)
            print(f"  written: {path}")


if __name__ == "__main__":
    main()
