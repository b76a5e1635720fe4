#!/usr/bin/env python3
"""Walk the fold bijection explicitly for a small box.

For every symmetric plane partition in the n x n x m box, print its height
matrix, the principal hooks of each horizontal slice, and the resulting
odd-column-strict array; finish with the shared generating function and the
MacMahon product it equals.
"""

import argparse

from schurbox.combinat import fold, generating_function, symmetric_plane_partitions
from schurbox.schur import BoxParams, macmahon_product


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2, help="box side (x, y <= n)")
    parser.add_argument("--m", type=int, default=2, help="height bound (z <= m)")
    args = parser.parse_args()
    if args.n < 0 or args.m < 0:
        parser.error("bounds must be non-negative")

    objects = list(symmetric_plane_partitions(args.n, args.m))
    for sp in objects:
        cs = fold(sp)
        # Level y of the image holds the principal hooks of the slice z >= y.
        slices = " | ".join(
            f"z>={level}: hooks {list(hooks)}" for level, hooks in enumerate(cs.levels, 1)
        ) or "empty"
        print(f"heights {sp.to_json()}  ->  {cs.to_json_dict()}   [{slices}]")
        assert cs.weight == sp.weight

    gf = generating_function(objects)
    print(f"\n{len(objects)} objects; generating function: {gf}")
    print(f"MacMahon product (m={args.m}, n={args.n}):  {macmahon_product(BoxParams(args.m, args.n))}")


if __name__ == "__main__":
    main()
