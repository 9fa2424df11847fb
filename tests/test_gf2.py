import random

import numpy as np
import pytest

from qpcodes.errors import PreconditionError
from qpcodes.gf2 import BitMatrix, gf2_rank, independent_words, reduce_words


def dense_rank(rows, ncols):
    # reference elimination on lists of 0/1, independent of the bitset path
    m = [[(r >> j) & 1 for j in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# per-bit definitions of the text and column plumbing: the reference the
# string-based implementations are checked against


def ref_to_text(rows, ncols):
    lines = [f"{len(rows)} {ncols}"]
    for r in rows:
        lines.append("".join("1" if (r >> j) & 1 else "0" for j in range(ncols)))
    return "\n".join(lines) + "\n"


def ref_from_line(line):
    bits = 0
    for j, ch in enumerate(line):
        if ch == "1":
            bits |= 1 << j
    return bits


def ref_column(rows, j):
    v = 0
    for i, r in enumerate(rows):
        v |= ((r >> j) & 1) << i
    return v


def ref_select(rows, idx):
    out = []
    for r in rows:
        nr = 0
        for pos, j in enumerate(idx):
            nr |= ((r >> j) & 1) << pos
        out.append(nr)
    return tuple(out)


def test_matrix_rejects_overflow_row():
    with pytest.raises(PreconditionError):
        BitMatrix((0b1000,), 3)
    with pytest.raises(PreconditionError):
        BitMatrix((-1,), 3)


@pytest.mark.parametrize("ncols", [0, 1, 7, 64, 65, 1000, 3001])
def test_text_and_columns_match_per_bit_reference(ncols):
    rng = random.Random(ncols)
    for nrows in (0, 1, 5, 9):
        rows = tuple(rng.getrandbits(ncols) if ncols else 0 for _ in range(nrows))
        m = BitMatrix(rows, ncols)
        text = m.to_text()
        assert text == ref_to_text(rows, ncols)
        if nrows and ncols:
            assert BitMatrix.from_text(text) == m
            assert [ref_from_line(ln) for ln in text.splitlines()[1:]] == list(rows)
        assert m.column_ints() == [ref_column(rows, j) for j in range(ncols)]
        idx = rng.sample(range(ncols), ncols // 3)
        assert m.select_columns(idx).rows == ref_select(rows, idx)
        drop = rng.sample(range(ncols), ncols // 4)
        keep = [j for j in range(ncols) if j not in drop]
        assert m.delete_columns(drop).rows == ref_select(rows, keep)


def test_rank_known_matrices():
    # hand-eliminated: [I4 | all-ones column] has rank 4
    s_rows = [0b10001, 0b10010, 0b10100, 0b11000]
    assert gf2_rank(s_rows) == 4
    # M = [[0,1],[1,1]] has rank 2
    assert gf2_rank([0b10, 0b11]) == 2
    assert gf2_rank([0, 0, 0]) == 0
    assert gf2_rank([0b111, 0b111]) == 1


def test_rank_matches_dense_reference_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        nr = rng.randrange(1, 9)
        nc = rng.randrange(1, 12)
        rows = [rng.getrandbits(nc) for _ in range(nr)]
        assert gf2_rank(rows) == dense_rank(rows, nc)


def test_matrix_column_and_select():
    m = BitMatrix((0b011, 0b110), 3)
    sel = m.select_columns([2, 0])
    assert sel.rows == (0b10, 0b01)
    assert sel.cols == 2
    assert m.delete_columns([1]).rows == (0b01, 0b10)


def test_matrix_text_roundtrip():
    m = BitMatrix((0b0101, 0b1111, 0b0011), 4)
    text = m.to_text()
    assert text.splitlines()[0] == "3 4"
    assert BitMatrix.from_text(text) == m


@pytest.mark.parametrize(
    "bad",
    ["", "2 3\n010", "1 3\n01", "1 3\n01x", "a b\n01"],
)
def test_matrix_text_rejects_malformed(bad):
    with pytest.raises(PreconditionError):
        BitMatrix.from_text(bad)


# (dtype, value bits): every unsigned word width, and nonnegative int64,
# whose top value bit is bit 62
KERNEL_DTYPES = [(np.uint8, 8), (np.uint16, 16), (np.uint32, 32), (np.uint64, 64), (np.int64, 63)]
KERNEL_IDS = [np.dtype(t).name for t, _ in KERNEL_DTYPES]


def random_word_sets(rng, bits, sets, size):
    """sets lists of size words below 2^bits, each word zero, a repeat,
    the XOR of two earlier words, a word with the top bit set, or random;
    so the sets mix dependent and independent ones."""
    top = 1 << (bits - 1)
    out = []
    for _ in range(sets):
        words = []
        for _ in range(size):
            kind = rng.randrange(6)
            if kind == 0:
                w = 0
            elif kind == 1 and words:
                w = rng.choice(words)
            elif kind == 2 and len(words) > 1:
                a, b = rng.sample(words, 2)
                w = a ^ b
            elif kind == 3:
                w = top | rng.getrandbits(bits - 1)
            else:
                w = rng.getrandbits(bits)
            words.append(w)
        out.append(words)
    return out


@pytest.mark.parametrize("dtype,bits", KERNEL_DTYPES, ids=KERNEL_IDS)
def test_independent_words_matches_rank(dtype, bits):
    rng = random.Random(bits)
    for size in range(1, min(bits, 7) + 1):
        sets = random_word_sets(rng, bits, 300, size)
        vals = np.array(sets, dtype=dtype).T.copy()
        got = independent_words(vals)
        assert got.tolist() == [gf2_rank(words) == size for words in sets]


@pytest.mark.parametrize("dtype,bits", KERNEL_DTYPES, ids=KERNEL_IDS)
def test_reduce_words_decides_span_membership(dtype, bits):
    rng = random.Random(bits + 1)
    for size in range(1, min(bits, 6) + 1):
        sets = random_word_sets(rng, bits, 300, size + 1)
        vals = np.array(sets, dtype=dtype).T.copy()
        basis, x = vals[:size], vals[size].copy()
        independent_words(basis)  # reduces basis in place to the kernel's basis form
        reduce_words(x, basis)
        for words, left in zip(sets, x.tolist()):
            rank = gf2_rank(words[:-1])
            assert (left == 0) == (gf2_rank(words) == rank)
            # what was taken off lies in the span
            assert gf2_rank(words[:-1] + [words[-1] ^ left]) == rank
