"""The label-merging block split that ``sheaves.orthogonal_blocks``
replaced with a union-find pass, kept as a test reference.

This is the earlier routine, unchanged: every coordinate starts with its
own label, and each Gram row and each member column merges the labels it
touches into their least, rewriting the whole label list per group.  The
union-find pass must give exactly its blocks, once ``fold_untouched``
has joined those that hold no member column into one: the same
coordinates, pairings and chunk generators, with the same chunks shared
as one object.
"""

from twistlines.frames import GradedMatrix
from twistlines.sheaves import Block, Pairing, Subbundle


def orthogonal_blocks(beta, members):
    n = beta.dim
    if any(m.ambient != (0,) * n for m in members):
        raise ValueError("a pairing needs a trivial ambient frame of its dimension")
    supports = [m.gen.support() for m in members]
    label = list(range(n))  # the least coordinate of each block, as blocks merge
    groups = [[i] + [j for j, b in enumerate(row) if b] for i, row in enumerate(beta.matrix)]
    for group in groups + [[i for i, _ in c] for sup in supports for c in sup if c]:
        merged = {label[i] for i in group}
        label = [min(merged) if x in merged else x for x in label]
    f, blocks = beta.field, []
    for block in sorted(set(label)):
        coords, chunks = tuple(i for i in range(n) if label[i] == block), []
        for m, sup in zip(members, supports):
            js = [j for j, c in enumerate(sup) if label[c[0][0] if c else 0] == block]
            src = tuple(m.gen.src[j] for j in js)
            rows = tuple(tuple(m.gen.entries[i][j] for j in js) for i in coords)
            same = [e for e in chunks if e.gen.src == src and e.gen.entries == rows]
            if not same:
                chunk = GradedMatrix._valid(f, src, (0,) * len(coords), rows)
                same = [Subbundle(chunk, check=False)]
            chunks.append(same[0])
        gram = [[beta.matrix[i][j] for j in coords] for i in coords]
        pairing = Pairing._valid(beta.flavor, gram, f) if any(e.rank for e in chunks) else None
        blocks.append(Block(coords, pairing, tuple(chunks)))
    return blocks


def fold_untouched(beta, blocks):
    """``blocks`` with those that hold no member column (no pairing) joined
    into one block at their least coordinate, its chunks one empty chunk."""
    untouched = sorted(i for b in blocks if b.pairing is None for i in b.coords)
    kept = [b for b in blocks if b.pairing is not None]
    if not untouched:
        return kept
    rows = ((),) * len(untouched)
    empty = Subbundle(GradedMatrix._valid(beta.field, (), (0,) * len(untouched), rows), check=False)
    count = len(blocks[0].chunks)
    kept.append(Block(tuple(untouched), None, (empty,) * count))
    return sorted(kept, key=lambda b: b.coords[0])
