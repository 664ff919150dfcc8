"""Regenerate the core-class table that ``moment_expansion`` reads.

Each row is one isomorphism class of core transition multigraphs of order
e <= MAX_ORDER, written as one line: the first core that ``iter_cores(e)``
yields for the class, the number A_c of cores in the class, and the class's
exact volume ``num/den``. Rows are sorted by e. They are built from
``iter_cores``, ``multigraph_class`` and ``volume_exact``; through e = 14
that takes about 70 s, most of it classifying the 1,913,561 cores of
order 14. The script takes no options; to check the committed table,
regenerate it and compare:

    python scripts/core_classes.py
    git diff --exit-code src/sampspectra/_core_classes.py
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from sampspectra.combinatorics import MAX_ORDER, iter_cores, multigraph_class  # noqa: E402
from sampspectra.volumes import volume_exact  # noqa: E402

TABLE = SRC / "sampspectra" / "_core_classes.py"

HEADER = '''"""Core-class table read by :func:`sampspectra.moments.moment_expansion`.

Generated data; do not edit. Written by ``scripts/core_classes.py``, and
checked by regenerating it and comparing:

    python scripts/core_classes.py
    git diff --exit-code src/sampspectra/_core_classes.py

Each line of ``CORE_CLASSES`` is one isomorphism class of core transition
multigraphs: the first core that ``iter_cores(e)`` yields for the class,
the number of cores in the class and the class's exact volume ``num/den``.
Lines are sorted by the order e, the length of the core. A test rebuilds
the lines through e = 12 and checks the rest core by core.
"""

'''


def class_rows(e):
    """(labels, A_c, volume) of the classes of order e, in the order iter_cores meets them."""
    classes = {}  # class -> [first core, number of cores]
    for core in iter_cores(e):
        classes.setdefault(multigraph_class(core), [core, 0])[1] += 1
    return [(core, count, volume_exact(core)) for core, count in classes.values()]


def write_table(rows, path=TABLE):
    """Write ``rows`` of :func:`class_rows` to ``path`` as the generated module."""
    body = "\n".join(f"{','.join(map(str, labels))} {count} "
                     f"{volume.numerator}/{volume.denominator}"
                     for labels, count, volume in rows)
    path.write_text(f'{HEADER}CORE_CLASSES = """\\\n{body}\n"""\n')


if __name__ == "__main__":
    rows = [row for e in range(1, MAX_ORDER + 1) for row in class_rows(e)]
    write_table(rows)
    print(f"wrote {len(rows)} classes of order <= {MAX_ORDER} to {TABLE.name}")
