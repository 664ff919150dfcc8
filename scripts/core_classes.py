"""Write or check the core-class table that ``moment_expansion`` reads.

Each row is one isomorphism class of core transition multigraphs of order
e <= MAX_ORDER, written as one line: the first core that ``iter_cores(e)``
yields for the class, the number A_c of cores in the class, and the class's
exact volume ``num/den``. Rows are sorted by e. They are built from
``iter_cores``, ``multigraph_class`` and ``volume_exact``; through e = 14
that takes about 70 s, most of it classifying the 1,913,561 cores of
order 14.

    python scripts/core_classes.py --write     # regenerate src/sampspectra/_core_classes.py
    python scripts/core_classes.py --check 12  # rebuild rows through e = 12 and compare

``--check E`` exits 1 when the rebuilt rows through order E differ from the
committed ones, and 0 when they agree.
"""

import argparse
import itertools
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from sampspectra.combinatorics import MAX_ORDER, iter_cores, multigraph_class  # noqa: E402
from sampspectra.volumes import volume_exact  # noqa: E402

TABLE = SRC / "sampspectra" / "_core_classes.py"

HEADER = '''"""Core-class table read by :func:`sampspectra.moments.moment_expansion`.

Generated data; do not edit. Written by ``scripts/core_classes.py`` with

    python scripts/core_classes.py --write

Each line of ``CORE_CLASSES`` is one isomorphism class of core transition
multigraphs: the first core that ``iter_cores(e)`` yields for the class,
the number of cores in the class and the class's exact volume ``num/den``.
Lines are sorted by the order e, the length of the core. A test rebuilds
the lines through e = 12 and checks the rest core by core.
"""

'''


def class_rows(e):
    """Table lines of the classes of order e, in the order iter_cores meets them."""
    classes = {}  # class -> [first core, number of cores]
    for core in iter_cores(e):
        classes.setdefault(multigraph_class(core), [core, 0])[1] += 1
    rows = []
    for core, count in classes.values():
        volume = volume_exact(core)
        rows.append(f"{','.join(map(str, core))} {count} "
                    f"{volume.numerator}/{volume.denominator}")
    return rows


def committed_rows(max_order):
    """Committed table lines of the classes of order at most ``max_order``."""
    from sampspectra._core_classes import CORE_CLASSES

    return [line for line in CORE_CLASSES.splitlines()
            if line.split(" ", 1)[0].count(",") < max_order]


def write_table():
    rows = [row for e in range(1, MAX_ORDER + 1) for row in class_rows(e)]
    body = "\n".join(rows)
    TABLE.write_text(f'{HEADER}CORE_CLASSES = """\\\n{body}\n"""\n')
    print(f"wrote {len(rows)} classes of order <= {MAX_ORDER} to {TABLE.name}")


def check_table(max_order):
    built = [row for e in range(1, max_order + 1) for row in class_rows(e)]
    committed = committed_rows(max_order)
    if built == committed:
        print(f"{len(built)} rows through e = {max_order} match")
        return 0
    for i, (b, c) in enumerate(itertools.zip_longest(built, committed)):
        if b != c:
            print(f"row {i}: built {b!r}, committed {c!r}")
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true",
                        help=f"regenerate the table through e = {MAX_ORDER}")
    action.add_argument("--check", type=int, metavar="E",
                        help="rebuild the rows through order E and compare")
    args = parser.parse_args(argv)
    if args.write:
        write_table()
        return 0
    if not 1 <= args.check <= MAX_ORDER:
        parser.error(f"E must lie in 1..{MAX_ORDER}, got {args.check}")
    return check_table(args.check)


if __name__ == "__main__":
    sys.exit(main())
