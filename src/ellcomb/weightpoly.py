"""Exact polynomials in the cell-weight symbols w(s, t).

The coefficient ring for symbolic normal ordering: commuting symbols
w(s, t) indexed by integer pairs, integer coefficients, all arithmetic
exact.  The polynomial maps monomials to nonzero integer coefficients.

Each monomial is one Python int (Kronecker packing), read in a frame
private to its polynomial: an origin (s0, t0), a row width W and a field
width of 8 * nb bits.  The symbol w(s, t) owns field number
(s - s0) * W + (t - t0), and the monomial is

    sum of  e * 2^(8 * nb * ((s - s0) * W + (t - t0)))

over its symbols w(s, t)^e.  So the constant monomial is 0 in every
frame, a product of monomials is an integer sum, and a uniform shift
of every symbol moves only the origin.  Field order is the order of
(s, t), which keeps the output order of the tuple form: a decoded
monomial is the sorted tuple of ((s, t), e) pairs with e >= 1, and the
constructor and ``from_json`` take that form.

Besides its frame a polynomial keeps two bounds: every symbol has
s >= s0 and t0 <= t < tend <= t0 + W, and every exponent is at most
top < 2^(8 nb).  W (a power of two, at least 8) and nb (a power of two)
follow from the data.  Operands in different frames are re-encoded
into a frame holding both before +, * and ==, and the field width
doubles before a product could carry out of a field.  Hashes are taken
over the decoded monomials, so they do not depend on the frame.

One reader, ``_reader``, decodes the packed form: eight fields at a
time, each distinct chunk once, into ids of the polynomial's distinct
cells ((s, t), e).  Text, JSON and ``monomials()`` read one monomial
at a time in sorted order and render each cell once; text and JSON come
out in chunks, one term at a time (``text_chunks``, ``json_chunks``),
so a large polynomial is written without being held whole.  ``evaluate``
reads row by row, a row being the W fields of one s: each distinct row
is read and multiplied out once per call.  Each call splits each
monomial at the middle row of its polynomial into a head, the
coefficient and the rows below, and a tail, the rows from there up;
monomials share most of their heads and tails, so each distinct head's
partial product is formed once and each distinct tail read once, and a
monomial is its head's value times its tail's row products, the
multiplications of the row-by-row order in that order.  A polynomial
keeps nothing from an evaluation: every call reads the packed form
afresh.  The exact largest exponent, and re-encoding into wider rows or
fields, which packs each cell once, read through ``_reader`` too.
"""

from __future__ import annotations

# special_fn imports this module first, so its names are read at call time
from . import special_fn

# sort key digit of a one-byte field: an exponent e >= 1 gives e - 1 and
# an absent symbol (0) gives 255, so bytewise order is tuple order
_ORDER = bytes((e - 1) % 256 for e in range(256))
# fields per chunk when a monomial is read: a 64-bit word of byte fields
_CHUNK_FIELDS = 8


def _width(span: int) -> int:
    """Row width for symbols with span distinct t values: a power of two
    and at least one chunk of eight fields, so frames built from
    different data mostly agree and re-encode by a shift."""
    return max(_CHUNK_FIELDS, 1 << (span - 1).bit_length())


def _bytes_for(top: int) -> int:
    """Bytes per field that hold exponents up to top: a power of two."""
    nb = 1
    while top >> (nb << 3):
        nb <<= 1
    return nb


def _fields(m: int, nb: int):
    """Exponents of the fields of m from field 0 up to its last nonzero
    field: the raw bytes when a field is one byte."""
    raw = m.to_bytes(-(-m.bit_length() // (nb << 3)) * nb, "little")
    if nb == 1:
        return raw
    return [int.from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb)]


def _order_key(m: int, nb: int) -> bytes:
    """Bytes that sort like the decoded tuple monomials: field by field
    from the smallest (s, t), e - 1 for an exponent and the largest digit
    for an absent symbol, so a monomial that ends first sorts first."""
    if nb == 1:
        return _fields(m, 1).translate(_ORDER)
    full = 1 << (nb << 3)
    return b"".join(((e - 1) % full).to_bytes(nb, "big") for e in _fields(m, nb))


def _join(fa, tend_a, fb, tend_b) -> tuple:
    """A frame holding the symbols of two frames and the joint t bound:
    one of the two when it already holds the other's symbols.  A frame
    wider than 8 is less than twice its t span (tend - t0), so a frame
    that holds another's symbols is never the narrower one."""
    if fa is None:
        return fb, tend_b
    if fb is None:
        return fa, tend_a
    tend = tend_a if tend_a > tend_b else tend_b
    if fa == fb:
        return fa, tend
    sa, ta, wa, na = fa
    sb, tb, wb, nbb = fb
    if sa <= sb and ta <= tb and tend_b <= ta + wa and na >= nbb:
        return fa, tend
    if sb <= sa and tb <= ta and tend_a <= tb + wb and nbb >= na:
        return fb, tend
    t0 = ta if ta < tb else tb
    w = wa if wa > wb else wb
    if tend - t0 > w:
        w = _width(tend - t0)
    return (sa if sa < sb else sb, t0, w, na if na > nbb else nbb), tend


def _reader(frame) -> tuple:
    """(cells, read) for monomials in frame, the one decoder of the
    packed form: read(m) gives the ids of the symbols of m in ascending
    (s, t), ids indexing cells, the distinct ((s, t), e) in order of
    first reading.  A monomial is read eight fields at a time, runs of
    zero chunks are skipped, and each distinct chunk is decoded once, so
    the monomials of one polynomial, which share most of their chunks,
    cost a few dict lookups each.  read(m, index) reads m as the fields
    from chunk number index on, so a slice of a monomial is read in
    place.  A constant polynomial has no frame; its one monomial, 0,
    reads as () in any frame."""
    s0, t0, w, nb = frame or (0, 0, _CHUNK_FIELDS, 1)
    bits = 8 * _CHUNK_FIELDS * nb
    mask = (1 << bits) - 1
    cells: list = []
    parts: dict = {}  # (chunk number, chunk) -> ids of its cells
    ids: dict = {}  # (field number, e) -> id

    def read(m: int, index: int = 0) -> tuple:
        found = ()
        while m:
            chunk = m & mask
            if chunk:
                key = (index, chunk)
                part = parts.get(key)
                if part is None:
                    part = []
                    for p, e in enumerate(_fields(chunk, nb), index * _CHUNK_FIELDS):
                        if e:
                            i = ids.get((p, e))
                            if i is None:
                                i = ids[(p, e)] = len(cells)
                                ds, dt = divmod(p, w)
                                cells.append(((s0 + ds, t0 + dt), e))
                            part.append(i)
                    part = parts[key] = tuple(part)
                found += part
                m >>= bits
                index += 1
            else:
                skip = ((m & -m).bit_length() - 1) // bits
                m >>= skip * bits
                index += skip
        return found

    return cells, read


def _terms_in(poly: "WeightPolynomial", frame) -> dict:
    """The terms of poly with monomials in frame, which holds poly's.
    With rows and fields as wide as poly's a monomial moves by a shift;
    otherwise each distinct symbol is packed once in frame and a
    monomial is the sum of its symbols."""
    own = poly._frame
    if own is None or own == frame:
        return poly.terms
    s0, t0, w, nb = own
    S0, T0, W, NB = frame
    if w == W and nb == NB:
        shift = (NB << 3) * ((s0 - S0) * W + t0 - T0)
        return {m << shift: c for m, c in poly.terms.items()}
    cells, read = _reader(own)
    rows = [(read(m), c) for m, c in poly.terms.items()]
    packed = [_pack(frame, (cell,)) for cell in cells]
    return {sum([packed[i] for i in ids]): c for ids, c in rows}


def _exact_top(poly: "WeightPolynomial") -> int:
    """The largest exponent in poly; it replaces the stored bound."""
    cells, read = _reader(poly._frame)
    for m in poly.terms:
        read(m)
    top = poly._top = max((e for _, e in cells), default=0)
    return top


def _fit(frame, top: int, *operands) -> tuple:
    """(frame, top) for a product whose exponents are at most top, the
    sum of the operands' bounds and a constant.  A sum that does not fit
    in a field is first redone from the operands' exact exponents, then
    the fields widen, so a product never carries between fields."""
    if frame is None or not top >> (frame[3] << 3):
        return frame, top
    bound = sum(poly._top for poly in operands)
    top += sum(_exact_top(poly) for poly in operands) - bound
    return frame[:3] + (max(frame[3], _bytes_for(top)),), top


def _poly(terms: dict, frame, tend, top: int) -> "WeightPolynomial":
    poly = WeightPolynomial.__new__(WeightPolynomial)
    poly.terms = terms
    poly._frame = frame
    poly._tend = tend
    poly._top = top
    return poly


def _encode(entries) -> tuple:
    """(terms, frame, tend, top) from (pairs, c) entries, pairs an
    iterable of ((s, t), e): repeated symbols add their exponents and
    repeated monomials their coefficients."""
    monomials = []
    for pairs, c in entries:
        mon: dict = {}
        for (s, t), e in pairs:
            e = int(e)
            if e < 1:
                raise ValueError(f"exponent of w({s},{t}) must be >= 1, got {e}")
            key = (int(s), int(t))
            mon[key] = mon.get(key, 0) + e
        monomials.append((mon, c))
    top = max((e for mon, _ in monomials for e in mon.values()), default=0)
    frame, tend, top = _cell_basis([key for mon, _ in monomials for key in mon], top)
    terms: dict = {}
    for mon, c in monomials:
        m = _pack(frame, mon.items()) if mon else 0
        terms[m] = terms.get(m, 0) + c
    return {m: c for m, c in terms.items() if c != 0}, frame, tend, top


def _pack(frame: tuple, pairs) -> int:
    """The monomial of ((s, t), e) pairs in frame, which holds them."""
    s0, t0, w, nb = frame
    bits = nb << 3
    m = 0
    for (s, t), e in pairs:
        m += e << bits * ((s - s0) * w + t - t0)
    return m


def _cell_basis(cells, top: int) -> tuple:
    """(frame, tend, top), the last three arguments of ``_poly``, for
    polynomials whose symbols are among the (s, t) in cells, with
    exponents at most top."""
    if not cells:
        return None, None, 0
    s0 = min(s for s, _ in cells)
    t0 = min(t for _, t in cells)
    tend = max(t for _, t in cells) + 1
    return (s0, t0, _width(tend - t0), _bytes_for(top)), tend, top


class WeightPolynomial:
    """Integer-coefficient polynomial in the symbols w(s, t)."""

    __slots__ = ("terms", "_frame", "_tend", "_top")

    def __init__(self, terms=None):
        self.terms, self._frame, self._tend, self._top = _encode(
            terms.items() if terms else ())

    @classmethod
    def zero(cls) -> "WeightPolynomial":
        return _poly({}, None, None, 0)

    @classmethod
    def one(cls) -> "WeightPolynomial":
        return _poly({0: 1}, None, None, 0)

    @classmethod
    def from_int(cls, n: int) -> "WeightPolynomial":
        return _poly({0: int(n)} if n else {}, None, None, 0)

    @classmethod
    def symbol(cls, s: int, t: int) -> "WeightPolynomial":
        return _poly({1: 1}, (s, t, _CHUNK_FIELDS, 1), t + 1, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _constant(self):
        """The integer value of a constant polynomial, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            return self.terms.get(0)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = WeightPolynomial.from_int(other)
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        if self._frame == other._frame:
            return self.terms == other.terms
        frame, _ = _join(self._frame, self._tend, other._frame, other._tend)
        return _terms_in(self, frame) == _terms_in(other, frame)

    def __hash__(self):
        return hash(frozenset(self.monomials()))

    def __add__(self, other) -> "WeightPolynomial":
        if isinstance(other, int):
            other = WeightPolynomial.from_int(other)
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        frame, tend = _join(self._frame, self._tend, other._frame, other._tend)
        out = dict(_terms_in(self, frame))
        for m, c in _terms_in(other, frame).items():
            n = out.get(m, 0) + c
            if n:
                out[m] = n
            elif m in out:
                del out[m]
        return _poly(out, frame, tend, max(self._top, other._top))

    __radd__ = __add__

    def __neg__(self) -> "WeightPolynomial":
        return _poly({m: -c for m, c in self.terms.items()},
                     self._frame, self._tend, self._top)

    def __sub__(self, other) -> "WeightPolynomial":
        if not isinstance(other, (int, WeightPolynomial)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "WeightPolynomial":
        if isinstance(other, int):
            if other == 0:
                return WeightPolynomial.zero()
            return _poly({m: c * other for m, c in self.terms.items()},
                         self._frame, self._tend, self._top)
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        frame, tend = _join(self._frame, self._tend, other._frame, other._tend)
        frame, top = _fit(frame, self._top + other._top, self, other)
        out: dict = {}
        others = _terms_in(other, frame).items()
        for m1, c1 in _terms_in(self, frame).items():
            for m2, c2 in others:
                m = m1 + m2
                n = out.get(m, 0) + c1 * c2
                if n:
                    out[m] = n
                elif m in out:
                    del out[m]
        return _poly(out, frame, tend, top)

    __rmul__ = __mul__

    def times_symbol(self, s: int, t: int) -> "WeightPolynomial":
        """Fast multiplication by a single symbol w(s, t)."""
        frame, tend = _join(self._frame, self._tend, (s, t, _CHUNK_FIELDS, 1), t + 1)
        frame, top = _fit(frame, self._top + 1, self)
        factor = _pack(frame, (((s, t), 1),))
        out = {m + factor: c for m, c in _terms_in(self, frame).items()}
        return _poly(out, frame, tend, top)

    def shift(self, ds: int, dt: int) -> "WeightPolynomial":
        """Rename every symbol w(s, t) to w(s + ds, t + dt)."""
        if (ds == 0 and dt == 0) or self._frame is None:
            return self
        s0, t0, w, nb = self._frame
        return _poly(self.terms, (s0 + ds, t0 + dt, w, nb), self._tend + dt, self._top)

    def evaluate(self, family, cache: dict | None = None) -> complex:
        """Substitute numeric weights from a family for the symbols.

        A row of a monomial is its factors w or w^e of one s, multiplied
        in ascending t.  Each monomial multiplies its coefficient by its
        row products in ascending s, and the monomials are summed in the
        order of ``terms``.  Rows are fixed by s, so the value does not
        depend on the packing.  Each call multiplies out every distinct
        (row number, row) once and looks up every distinct weight once,
        in ``cache`` (keyed (s, t)) or the family.  It splits each
        monomial at the middle of its polynomial's rows, rows =
        ceil(bit length of the largest monomial / row bits) split at
        rows // 2: each distinct head (coefficient, rows below the split)
        is multiplied out once, c P_0 ... P_(split-1), and each distinct
        tail (rows from the split up) is read once into its row ids, so
        a monomial is its head's value times its tail's row products in
        ascending rows, the same multiplications in the same order as one
        row at a time.  Heads, tails and rows live for the call, and the
        polynomial keeps nothing, so every call gives identical bits.  A
        value beyond the double range is an EvaluationError."""
        if getattr(family, "symbolic", False):
            raise special_fn.DomainError("cannot evaluate symbols against a symbolic family")
        if cache is None:
            cache = {}

        def weigh(cell):
            key, e = cell
            weight = cache.get(key)
            if weight is None:
                weight = cache[key] = complex(family.small(*key))
            return weight if e == 1 else special_fn.qpow(weight, e)

        def multiply(ids):
            product = weights[ids[0]]
            for i in ids[1:]:
                product *= weights[i]
            return product

        total = 0.0 + 0.0j
        w, nb = self._frame[2:] if self._frame else (_CHUNK_FIELDS, 1)
        bits = 8 * nb * w
        mask = (1 << bits) - 1
        chunks = w // _CHUNK_FIELDS
        cells, read = _reader(self._frame)
        weights: list = []
        rows: list = []  # the distinct rows, each as the ids of its cells
        products: list = []  # the product of each row
        nrows = -(-max(self.terms, default=0).bit_length() // bits)
        seen: list = [{} for _ in range(nrows)]  # per row number, row -> its index in rows

        def walk(m, k):
            """The row ids of m read as rows k, k + 1, ..., in ascending
            order; each distinct row is read and multiplied out once."""
            ids = []
            while m:
                row = m & mask
                if row:
                    i = seen[k].get(row)
                    if i is None:
                        i = seen[k][row] = len(rows)
                        rows.append(read(row, k * chunks))
                        weights.extend(map(weigh, cells[len(weights):]))
                        products.append(multiply(rows[i]))
                    ids.append(i)
                    m >>= bits
                    k += 1
                else:
                    skip = ((m & -m).bit_length() - 1) // bits
                    m >>= skip * bits
                    k += skip
            return ids

        # a monomial is its head (coefficient, rows below split) and its
        # tail (rows from split up); each distinct head and tail is
        # walked once per call
        split = nrows // 2
        cut = split * bits
        low = (1 << cut) - 1
        heads: dict = {}  # (c, head) -> c P_0 ... P_(split-1)
        tails: dict = {}  # tail -> its row ids
        for m, c in self.terms.items():
            key = (c, m & low)
            value = heads.get(key)
            if value is None:
                value = complex(c)
                for i in walk(key[1], 0):
                    value *= products[i]
                heads[key] = value
            tail = tails.get(m >> cut)
            if tail is None:
                tail = tails[m >> cut] = walk(m >> cut, split)
            for i in tail:
                value *= products[i]
            total += value
        return special_fn.require_finite(total, "weight polynomial value")

    def _ordered(self, factor):
        """(factors, coefficient) in sorted monomial order, factors the
        list of factor(cell) over the cells ((s, t), e) of the monomial in
        ascending (s, t).  A monomial is decoded only when it is reached,
        and factor runs once per distinct cell."""
        terms = self.terms
        nb = self._frame[3] if self._frame else 1
        cells, read = _reader(self._frame)
        made: list = []
        for m in sorted(terms, key=lambda m: _order_key(m, nb)):
            ids = read(m)
            made.extend(map(factor, cells[len(made):]))
            yield [made[i] for i in ids], terms[m]

    def monomials(self):
        return [(tuple(cells), c) for cells, c in self._ordered(lambda cell: cell)]

    def __repr__(self):
        return f"WeightPolynomial({self})"

    def __str__(self):
        return "".join(self.text_chunks())

    def text_chunks(self):
        """The text of ``str``, one term at a time: the terms in sorted
        monomial order joined by " + ", each a coefficient (left out when
        it is 1 before a monomial) and powers w(s,t)^e joined by "*"."""
        if not self.terms:
            yield "0"
            return

        def power(cell):
            (s, t), e = cell
            return f"w({s},{t})" if e == 1 else f"w({s},{t})^{e}"

        for index, (factors, c) in enumerate(self._ordered(power)):
            head = [str(c)] if c != 1 or not factors else []
            yield (" + " if index else "") + "*".join(head + factors)

    def json_entries(self):
        """The entries of ``to_json``, one at a time, in the same order."""
        for factors, c in self._ordered(lambda cell: ("{},{}".format(*cell[0]), cell[1])):
            yield {"monomial": [list(factor) for factor in factors], "c": c}

    def json_chunks(self):
        """The text of ``json.dumps(self.to_json(), sort_keys=True)``,
        one entry at a time, so a large document is never held whole."""
        import json  # here, so that ``import ellcomb`` does not load it
        encode = json.JSONEncoder(sort_keys=True).encode
        yield "["
        for index, entry in enumerate(self.json_entries()):
            yield ", " + encode(entry) if index else encode(entry)
        yield "]"

    def to_json(self) -> list:
        return list(self.json_entries())

    @classmethod
    def from_json(cls, data) -> "WeightPolynomial":
        """The polynomial of ``to_json`` entries.  Repeated symbols add
        their exponents and repeated monomials their coefficients; an
        exponent below 1 is a ValueError."""
        entries = []
        for entry in data:
            pairs = []
            for key, e in entry["monomial"]:
                s_txt, t_txt = key.split(",")
                pairs.append(((int(s_txt), int(t_txt)), e))
            entries.append((pairs, int(entry["c"])))
        return _poly(*_encode(entries))
