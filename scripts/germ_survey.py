#!/usr/bin/env python3
"""Survey germ classes across sample points for a preset family.

For each point: the preset classification (when a rule exists) next to the
enumerated germ-class evidence, so the proven rule and the computational
lower bound can be compared at a glance.

Usage: python scripts/germ_survey.py [--family NAME] [--maxlen N]
"""

import argparse

from cantorstab import classify_point, germ_classes, parse_point
from cantorstab.presets import load_preset
from cantorstab.serialize import _word_text

POINTS = ["(0)", "(1)", "(01)", "1(0)", "0(1)", "0110(1)", "(011)"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="grigorchuk")
    parser.add_argument("--maxlen", type=int, default=4)
    args = parser.parse_args()

    family = load_preset(args.family)
    print(f"family: {family.name}, words <= {args.maxlen}")
    print(f"{'point':>10}  {'rule':>9}  {'classes':>7}  representatives")
    for text in POINTS:
        point = parse_point(text, family.alphabet)
        rule = classify_point(family, point).value
        report = germ_classes(family, point, max_word_len=args.maxlen)
        reps = ", ".join(_word_text(c.representative_word) for c in report.classes)
        print(f"{str(point):>10}  {rule:>9}  {report.lower_bound:>7}  {reps}")


if __name__ == "__main__":
    main()
