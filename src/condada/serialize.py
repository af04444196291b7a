"""Flat text serialization: named float64 arrays and CSV rows.

Arrays: one line per tensor: name, rank, extents, then values encoded with
``float.hex`` so round-trips are bit-exact. Lines starting with ``#`` carry
string metadata (``# key value``) and are preserved as a dict.

CSV rows: floats by ``repr``, so ``float()`` reads each back exactly.
"""

from __future__ import annotations

import numpy as np

# Floats formatted per block: each numpy call costs a few µs besides its
# lanes, so smaller blocks pay that more often (2k-float blocks took 1.5x as
# long on a 6,000 x 64 set), and 16k-float blocks were no faster.
CSV_BLOCK_FLOATS = 8192

# Ryu's d2d (Adams, PLDI 2018), common path, tabulated per biased exponent E.
# A normal double is 4*m2 * 2**e2, with e2 = E - 1077 and m2 its 53-bit
# significand. With q = floor(log10(5**-e2)) - 1 and i = -e2 - q, the double
# and the midpoints to its neighbours, times 10**-(q + e2), have the integer
# parts vr, vp, vm = (2*m2 + t) * 5**i >> (q - 1) for t = 0, 1, -1 (the lower
# midpoint is nearer only for m2 = 2**52, a trailing-zeros lane).
# Only 1009 <= E <= 1072 is filled (shift 1 elsewhere, so any lane's shifts
# are valid): below, |x| < 2**-14 < 1e-4, where repr uses an exponent; above,
# q < 2. There 5**i < 2**52, so the products are exact. A lane is taken only
# if m2 & TZ != 0, i.e. 2*m2 * 5**i is not a multiple of 2**(q - 1): the
# rest is Ryu's trailing-zeros case. TZ = 0 at E = 1072 (q = 2), so every
# lane taken is below 2**49 < 1e15, and decpt <= 16 holds for each.
def _ryu_tables():
    pow5, shift, tz = np.zeros(2048, np.uint64), np.ones(2048, np.uint64), np.zeros(2048, np.uint64)
    e10 = np.zeros(2048, np.int64)
    for biased in range(1009, 1073):
        n = 1077 - biased
        q = (n * 732923 >> 20) - 1  # Ryu's log10Pow5(n) - 1
        pow5[biased], shift[biased], e10[biased], tz[biased] = 5 ** (n - q), q - 1, q - n, (1 << (q - 2)) - 1
    return pow5, shift, e10, tz


_POW5, _SHIFT, _E10, _TZ = _ryu_tables()
_M32 = np.uint64(0xFFFFFFFF)
_P10 = 10 ** np.arange(20, dtype=np.uint64)
# Per count r of dropped digits, the least remainder vr mod 10**r that rounds
# up (a last dropped digit >= 5); none for r = 0.
_HALF = np.array([1, *(5 * _P10[:-1])], np.uint64)


def write_csv_rows(fh, x: np.ndarray, labels: np.ndarray, tail: str = "") -> None:
    """Write ``",".join(map(repr, row)) + f",{label}{tail}\\n"`` for each row of
    the (n, d) float64 block x and its label, to the binary file fh, in blocks
    of about CSV_BLOCK_FLOATS floats."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    rows = max(1, CSV_BLOCK_FLOATS // max(1, x.shape[1]))
    for lo in range(0, x.shape[0], rows):
        fh.write(_csv_block(x[lo:lo + rows], labels[lo:lo + rows].tolist(), tail))


def _csv_block(x: np.ndarray, labels: list, tail: str) -> bytes:
    """The CSV rows of one block, its floats formatted by Ryu's shortest-digit
    search on uint64 lanes, which picks repr's digits. Lanes with
    1e-4 <= |x| < 2**49 take it, except Ryu's trailing-zeros case; the rest
    (zeros, subnormals, inf, nan, exponent notation, larger values and that
    case) are repr'd and copied in."""
    n, d = x.shape
    flat = x.reshape(-1)
    bits = flat.view(np.uint64)
    neg = np.signbit(flat)
    biased = (bits >> 52 & 0x7FF).astype(np.intp)
    m2 = bits & np.uint64((1 << 52) - 1) | np.uint64(1 << 52)
    b, s = _POW5[biased], _SHIFT[biased]
    # P = 2*m2 * b as two 64-bit words from 32-bit halves; vr, vp, vm = P, P + b, P - b, each >> s.
    a = m2 << 1
    a_lo, a_hi, b_lo, b_hi = a & _M32, a >> 32, b & _M32, b >> 32
    ll = a_lo * b_lo
    mid = a_lo * b_hi + a_hi * b_lo + (ll >> 32)
    hi = a_hi * b_hi + (mid >> 32)
    lo = mid << 32 | ll & _M32
    up = 64 - s
    vr = hi << up | lo >> s
    lo_p = lo + b
    vp = (hi + (lo_p < lo)) << up | lo_p >> s
    lo_m = lo - b
    vm = (hi - (lo_m > lo)) << up | lo_m >> s
    # Drop the r digits that vp and vm do not share, r as large as possible;
    # round up if the last digit dropped is >= 5, or if vr would equal vm.
    r = np.zeros(flat.size, np.int64)
    p, m = vp // 10, vm // 10
    while (more := p > m).any():
        r += more
        p, m = p // 10, m // 10
    p10 = _P10[r]
    out = vr // p10
    out += (out == vm // p10) | (vr - out * p10 >= _HALF[r])
    # out's digit count: vr = 4*m2 * 5**-e2 / 10**q with 5**-e2 / 10**q in
    # [10, 100) has 18 or 19 digits, vr // 10**r has r fewer, and rounding up
    # may carry into one more.
    nd = 18 + (vr >= _P10[18]) - r
    nd += out >= _P10[nd]
    decpt = nd + _E10[biased] + r  # out * 10**(decpt - nd): repr is positional for -4 < decpt <= 16
    fb = np.flatnonzero((m2 & _TZ[biased] == 0) | (decpt <= -4))
    texts = [repr(v).encode() for v in flat[fb].tolist()]
    out[fb], nd[fb], decpt[fb], neg[fb] = 0, 1, 1, False

    # Layout: each cell is [',' unless first in its row][sign][int part].[fraction];
    # each row ends in its label's piece.
    intlen = np.maximum(decpt, 1)
    body_len = neg + intlen + 1 + np.maximum(nd - decpt, 1)
    body_len[fb] = [len(t) for t in texts]
    cells = np.empty((n, d + 1), np.int64)
    cells[:, :d] = body_len.reshape(n, d)
    cells[:, 1:d] += 1
    pieces = {label: f",{label}{tail}\n".encode() for label in set(labels)}
    row_pieces = [pieces[label] for label in labels]
    cells[:, d] = [len(piece) for piece in row_pieces]
    ends = np.cumsum(cells) + 1  # byte 0 is a pad, so every body has a byte before it
    starts = (ends - cells.reshape(-1)).reshape(n, d + 1)
    body = (starts[:, :d] + (np.arange(d) > 0)).reshape(-1)
    buf = np.full(ends[-1], ord("0"), np.uint8)
    # Digit u (from the right) has weight decpt - nd + u; the fraction's
    # digits sit one byte right of the integer part's. A lane's leading zeros
    # past its first digit land at most on the byte before its body, written below.
    frac = nd - decpt
    base = body + neg + intlen - 1 + frac
    floor = body - 1
    for u in range(int(nd.max(initial=0))):
        q = out // 10
        buf[np.maximum(base - u + (u < frac), floor)] = (out - q * 10).astype(np.uint8) + ord("0")
        out = q
    buf[starts[:, 1:d]] = ord(",")
    buf[body[neg]] = ord("-")
    buf[body + neg + intlen] = ord(".")
    _put(buf, body[fb], texts)
    _put(buf, starts[:, d], row_pieces)
    return buf[1:].tobytes()


def _put(buf: np.ndarray, starts: np.ndarray, pieces: list[bytes]) -> None:
    """Copy each piece into buf at its start."""
    if not pieces:
        return
    lens = np.fromiter(map(len, pieces), np.int64, len(pieces))
    buf[np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)] = (
        np.frombuffer(b"".join(pieces), np.uint8))


def write_arrays(path, arrays: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> None:
    with open(path, "w") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key} {value}\n")
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape)
            values = " ".join(v.hex() for v in arr.reshape(-1).tolist())
            fh.write(f"{name} {arr.ndim} {dims} {values}\n".rstrip() + "\n")


def read_arrays(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split(None, 1)
                if len(parts) == 2:
                    meta[parts[0]] = parts[1]
                continue
            tokens = line.split()
            try:
                name = tokens[0]
                rank = int(tokens[1])
                shape = tuple(int(t) for t in tokens[2 : 2 + rank])
                values = [float.fromhex(t) for t in tokens[2 + rank :]]
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}: malformed tensor line {lineno}") from exc
            expected = int(np.prod(shape)) if shape else 1
            if len(values) != expected:
                raise ValueError(f"{path}: line {lineno} declares shape {shape} but has {len(values)} values")
            arrays[name] = np.array(values, dtype=np.float64).reshape(shape)
    return arrays, meta
