#!/usr/bin/env python3
"""Census survey: count tables per order and search for enhancement witnesses.

Enumerates all involutory virtual biracks up to a given order, prints
per-order statistics (characteristic and good-involution histograms,
isomorphism classes when affordable), then runs the distinguishing-pair
search over the builtin diagram corpus.
"""

import argparse
import time
from collections import Counter
from dataclasses import dataclass

import symbirack as sb


@dataclass
class SurveyConfig:
    max_order: int = 3
    witnesses: int = 3
    iso_classes: bool = False   # bijection testing gets slow past order 4


def survey(cfg: SurveyConfig) -> None:
    # the arguments, and the census order cap, are checked before order 1 runs
    if cfg.max_order < 1:
        raise ValueError(f"max_order must be positive, got {cfg.max_order}")
    if cfg.witnesses < 1:
        raise ValueError(f"witnesses must be positive, got {cfg.witnesses}")
    cap = sb.census.DEFAULT_ORDER_CAP
    if cfg.max_order > cap:
        raise ValueError(f"cap exceeded: order {cfg.max_order} > cap {cap}")
    all_records = []
    for n in range(1, cfg.max_order + 1):
        t0 = time.perf_counter()
        records = [sb.census_record(t) for t in sb.enumerate_biracks(n)]
        dt = time.perf_counter() - t0
        all_records.extend(records)

        chars = Counter(r.characteristic for r in records)
        goods = Counter(len(r.good_involutions) for r in records)
        print(f"order {n}: {len(records)} tables  ({dt:.2f}s)")
        print(f"  characteristic histogram: {dict(sorted(chars.items()))}")
        print(f"  good-involution-count histogram: {dict(sorted(goods.items()))}")
        if cfg.iso_classes:
            reps = sb.distinct_up_to_isomorphism([r.table for r in records])
            print(f"  isomorphism classes: {len(reps)}")

    print(f"\nsearching for distinguishing pairs "
          f"(census orders 1..{cfg.max_order} x builtin corpus, "
          f"first {cfg.witnesses})...")
    t0 = time.perf_counter()
    witnesses = sb.find_distinguishing_pairs(all_records, sb.builtin_diagrams(),
                                             limit=cfg.witnesses)
    dt = time.perf_counter() - t0
    for w in witnesses:
        print(f"  order={w.table.n}  rho={w.rho.cycle_string()}  "
              f"{w.name_a} vs {w.name_b}: Phi_Z={w.phi_z}, "
              f"{sb.format_polynomial(w.poly_a)} vs {sb.format_polynomial(w.poly_b)}")
    if not witnesses:
        print("  none found")
    print(f"  ({dt:.2f}s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=SurveyConfig.max_order)
    parser.add_argument("--witnesses", type=int, default=SurveyConfig.witnesses)
    parser.add_argument("--iso-classes", action="store_true")
    args = parser.parse_args()
    survey(SurveyConfig(max_order=args.max_order, witnesses=args.witnesses,
                        iso_classes=args.iso_classes))


if __name__ == "__main__":
    main()
