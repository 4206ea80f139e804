"""Finite simple graphs, graph products, and independent-set machinery.

Vertices are 0-based indices.  Length-t source sequences are identified with
vertices of the t-fold OR power through a big-endian base-|V| encoding, so
tuple and index views of a sequence are interchangeable everywhere.

A graph is its bitmask rows: bit u of `rows[v]` is set iff uv is an edge.
`make_graph` ORs vertex pairs into rows in one checked walk, products
build rows directly, and the edge set is derived from the rows on first
use.  Products, maximal-independent-set enumeration, the independence
number's branch and bound and neighbourhood traces are bit operations on
the rows.  The independence number lists no independent sets: it starts
from a greedy independent set and bounds each search node by a greedy
clique cover of its candidates.  Inside the package a vertex set is an int
mask in the same layout.

Graphs, hypergraphs and vertex-set families are frozen values
(`values.FrozenValue`): equal fields give equal graphs with equal hashes,
which the `lru_cache`d functions here key on.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from . import rationals
from .budget import AUTOMORPHISM_VERTEX_CAP, WorkMeter
from .errors import DomainError, ResourceBudgetError
from .values import FrozenValue


class Graph(FrozenValue):
    """Simple undirected graph on bitmask rows, with optional distinct vertex labels.

    Bit u of `rows[v]` is set iff uv is an edge.  `Graph(n, rows)` checks
    the row count, that every bit names a vertex, that no row holds its own
    bit, and symmetry.  `make_graph` builds a graph from vertex pairs.
    """

    vertex_count: int
    rows: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n, rows = self.vertex_count, self.rows
        _require_vertex_count(n)
        if type(rows) is not tuple or len(rows) != n or not all(type(row) is int for row in rows):
            raise DomainError("bad_rows", f"rows must be a tuple of {n} integers")
        if min(rows, default=0) < 0:
            raise DomainError("bad_rows", "rows must be nonnegative bitmasks")
        _check_row_bits(n, rows)
        for a, row in enumerate(rows):
            for b in _bits(row):
                if not rows[b] >> a & 1:
                    raise DomainError("bad_rows", f"row {a} holds vertex {b} but row {b} does not hold vertex {a}")
        _check_labels(n, self.labels)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges (u, v), u < v, read off the rows."""
        return frozenset((a, a + 1 + k) for a, row in enumerate(self.rows) for k in _bits(row >> (a + 1)))

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        n = self.vertex_count
        return 0 <= u < n and 0 <= v < n and bool(self.rows[u] >> v & 1)


def _require_vertex_count(n) -> None:
    if not isinstance(n, int) or n < 0:
        raise DomainError("bad_vertex_count", f"vertex_count must be a nonnegative integer, got {n!r}")


def _check_row_bits(n: int, rows) -> None:
    """Every bit names a vertex below n and no row holds its own bit: the
    checks that need no symmetry walk."""
    top = max(rows, default=0)
    if top >> n:
        v = next(v for v, row in enumerate(rows) if row >> n)
        raise DomainError("bad_edge", f"row {v} holds a vertex out of range for n={n}")
    if top:
        for v, row in enumerate(rows):
            if row >> v & 1:
                raise DomainError("self_loop", f"self-loop at vertex {v}")


def _check_labels(n: int, labels) -> None:
    if labels is not None:
        if len(labels) != n:
            raise DomainError("bad_labels", f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise DomainError("bad_labels", "labels must be pairwise distinct")


def _graph_from_rows(n: int, rows: tuple[int, ...], labels=None) -> Graph:
    """The Graph on rows that are symmetric by construction.

    Skips the public constructor's symmetry walk and keeps the O(n) checks
    of `_check_row_bits`.
    """
    _check_row_bits(n, rows)
    _check_labels(n, labels)
    g = object.__new__(Graph)
    g.__dict__.update(vertex_count=n, rows=rows, labels=labels)
    return g


_NO_PAIR = object()


class MalformedPair(DomainError):
    """A vertex pair that does not unpack into two exact ints (`bad_edge`)."""

    def __init__(self, pair):
        super().__init__("bad_edge", f"edge endpoints must be integers, got {pair!r}")
        self.pair = pair


def make_graph(n: int, edges, labels=None) -> Graph:
    """Build a Graph from any iterable of vertex pairs; (u,v) and (v,u) collapse.

    Each pair is checked and ORed into the rows in one walk, so the first
    bad pair in iteration order is the one reported: a pair that does not
    unpack into two exact ints (`MalformedPair`), then a self-loop, then an
    endpoint out of range.  The size of the rows is checked against a
    `graph_rows` meter before they are allocated, after the first pair's
    shape: n * ceil(n / 64) words when there is an edge, and n words, one
    per row, when there is none.  With an edge, a table of the n single-bit
    masks, no larger than dense rows, replaces a shift per endpoint.
    """
    _require_vertex_count(n)
    pairs = iter(edges)
    first = next(pairs, _NO_PAIR)
    meter = WorkMeter("graph_rows")
    if first is _NO_PAIR:
        meter.check_size(n, "graph rows")
        rows = (0,) * n
    else:
        _check_shape(first)
        meter.check_size(_row_words(n), "graph rows")
        bit = [1 << v for v in range(n)]
        grid = [0] * n
        for pair in itertools.chain((first,), pairs):
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise MalformedPair(pair) from None
            if type(u) is not int or type(v) is not int or u == v or not (0 <= u < n and 0 <= v < n):
                raise _pair_error(pair, u, v, n)
            grid[u] |= bit[v]
            grid[v] |= bit[u]
        rows = tuple(grid)
    return _graph_from_rows(n, rows, tuple(labels) if labels is not None else None)


def _check_shape(pair) -> None:
    """Raise MalformedPair unless the pair unpacks into two exact ints."""
    try:
        u, v = pair
    except (TypeError, ValueError):
        raise MalformedPair(pair) from None
    if type(u) is not int or type(v) is not int:
        raise MalformedPair(pair)


def _pair_error(pair, u, v, n: int) -> DomainError:
    """Why `make_graph` refuses the pair (u, v), in the order its docstring gives."""
    if type(u) is not int or type(v) is not int:
        return MalformedPair(pair)
    if u > v:
        u, v = v, u
    if u == v:
        return DomainError("self_loop", f"self-loop at vertex {u}")
    return DomainError("bad_edge", f"edge {(u, v)!r} out of range or not normalized for n={n}")


@lru_cache(maxsize=None)
def adjacency(g: Graph) -> tuple[frozenset[int], ...]:
    """Neighbor sets, one frozenset per vertex.

    No function of the package calls it; it stays exported and cached
    because the benchmark's tracer reads its `cache_info()`.
    """
    return tuple(frozenset(_bits(row)) for row in g.rows)


def _require_nonempty(g: Graph) -> None:
    if g.vertex_count == 0:
        raise DomainError("empty_graph", "operation requires a graph with at least one vertex")


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _row_words(n: int) -> int:
    """64-bit words held by n bitmask rows of n bits each."""
    return n * -(-n // 64)


def vertex_mask(vertices) -> int:
    """The bitmask of a collection of vertices: bit v is set iff v is in it."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def first_edge_within(g: Graph, mask: int) -> tuple[int, int] | None:
    """The first edge (a, b), a < b, with both ends in the vertex mask, or None.

    Edges are ordered by a, then b, so the answer is the first confusable
    pair a scan over the sorted vertices would meet; None means the
    vertices are independent.
    """
    rows = g.rows
    rest = mask
    while rest:
        a = (rest & -rest).bit_length() - 1
        above = (rows[a] & mask) >> (a + 1)
        if above:
            return a, a + (above & -above).bit_length()
        rest &= rest - 1
    return None


def encode_symbols(symbols, base: int) -> int:
    value = 0
    for s in symbols:
        value = value * base + s
    return value


def decode_index(index: int, t: int, base: int) -> tuple[int, ...]:
    """The t symbols of sequence number index over base symbols, big-endian.

    The t symbols are checked against a `sequence_symbols` meter, and
    base**t is capped at index's bit length (`_capped_power`), so a huge t
    is refused before anything of its size is built.
    """
    if t < 1:
        raise DomainError("bad_sequence", f"sequence length must be >= 1, got {t}")
    if base < 1:
        raise DomainError("bad_base", f"alphabet size must be >= 1, got {base}")
    WorkMeter("sequence_symbols").check_size(t, "decoded sequence")
    if not (0 <= index < _capped_power(base, t, index)):
        raise DomainError("bad_sequence", f"index {index} out of range for base {base}, t={t}")
    out = []
    for _ in range(t):
        index, r = divmod(index, base)
        out.append(r)
    return tuple(reversed(out))


class Hypergraph(FrozenValue):
    """Vertex list plus a deduplicated family of nonempty hyperedges.

    Vertex ids are plain integers: base-graph indices at t=1, encoded sequence
    indices for t > 1.  Multiplicities never live here; multisets of vertex
    sets are VertexSetFamily's job.
    """

    vertex_ids: tuple[int, ...]
    hyperedges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise DomainError("bad_hypergraph", "duplicate vertex ids")
        vertex_set = set(self.vertex_ids)
        seen = set()
        for edge in self.hyperedges:
            if len(edge) == 0:
                raise DomainError("bad_hypergraph", "empty hyperedge")
            if len(set(edge)) != len(edge):
                raise DomainError("bad_hypergraph", f"repeated vertex inside hyperedge {edge!r}")
            if not set(edge) <= vertex_set:
                raise DomainError("bad_hypergraph", f"hyperedge {edge!r} leaves the vertex set")
            key = frozenset(edge)
            if key in seen:
                raise DomainError("bad_hypergraph", f"duplicate hyperedge {edge!r}")
            seen.add(key)

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)


def make_hypergraph(vertex_ids, hyperedges) -> Hypergraph:
    """Sort and deduplicate raw input into a canonical Hypergraph."""
    vertices = tuple(sorted(set(vertex_ids)))
    dedup = {frozenset(e) for e in hyperedges if len(e) > 0}
    edges = tuple(sorted(tuple(sorted(e)) for e in dedup))
    return Hypergraph(vertices, edges)


class VertexSetFamily(FrozenValue):
    """Multiset of vertex sets: parallel lists of sets and positive counts.

    Used for b-fold colorings and coverings.  A set may be empty: trimming an
    over-provisioned coloring can hollow out a color class, and dropping it
    would break the multiset size accounting.
    """

    sets: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.multiplicities):
            raise DomainError("bad_family", "sets and multiplicities must be parallel")
        seen = set()
        for s in self.sets:
            if tuple(sorted(set(s))) != s:
                raise DomainError("bad_family", f"set {s!r} must be sorted and duplicate-free")
            if s in seen:
                raise DomainError("bad_family", f"duplicate set {s!r}; raise its multiplicity instead")
            seen.add(s)
        for m in self.multiplicities:
            if not isinstance(m, int) or m < 1:
                raise DomainError("bad_family", f"multiplicity {m!r} must be a positive integer")

    @property
    def size(self) -> int:
        """Total multiset cardinality m (sum of multiplicities)."""
        return sum(self.multiplicities)

    def coverage(self, vertex: int) -> int:
        return sum(m for s, m in zip(self.sets, self.multiplicities) if vertex in s)


def make_family(occurrences) -> VertexSetFamily:
    """Collapse a list of vertex sets (with repetition) into a VertexSetFamily."""
    counts: dict[tuple[int, ...], int] = {}
    for occ in occurrences:
        key = tuple(sorted(set(occ)))
        counts[key] = counts.get(key, 0) + 1
    keys = sorted(counts)
    return VertexSetFamily(tuple(keys), tuple(counts[k] for k in keys))


# ---------------------------------------------------------------------------
# Graph products
# ---------------------------------------------------------------------------

def _spread(mask: int, width: int) -> int:
    """Move bit k of mask to bit k * width: one marker per block of a product row."""
    out = 0
    for k in _bits(mask):
        out |= 1 << (k * width)
    return out


def _product_guard(n: int) -> None:
    WorkMeter("graph_product").check_size(_row_words(n), "product rows")


def or_product(g: Graph, h: Graph) -> Graph:
    """Disjunctive product: pair vertices adjacent iff adjacent in either slot.

    Vertex (i, j) is encoded as i*|V(h)| + j, so iterating the product keeps
    the big-endian sequence encoding.  Row (i, j) is a full block at every
    g-neighbour of i plus h's row j in every block.
    """
    _require_nonempty(g)
    _require_nonempty(h)
    nh = h.vertex_count
    _product_guard(g.vertex_count * nh)
    # multiplying by a spread mask ORs shifted copies into disjoint blocks
    block = (1 << nh) - 1
    every_block = _spread((1 << g.vertex_count) - 1, nh)
    h_everywhere = [row * every_block for row in h.rows]
    rows = []
    for g_row in g.rows:
        blocks = _spread(g_row, nh) * block
        rows.extend(blocks | h_row for h_row in h_everywhere)
    return _graph_from_rows(len(rows), tuple(rows))


def and_product(g: Graph, h: Graph) -> Graph:
    """Strong-style product: distinct pairs adjacent iff every slot is equal or adjacent.

    The all-slots-equal pair is the same vertex, so the result stays simple.
    Row (i, j) is h's closed row j at every slot of g's closed row i, less
    the vertex itself.
    """
    _require_nonempty(g)
    _require_nonempty(h)
    nh = h.vertex_count
    _product_guard(g.vertex_count * nh)
    h_closed = [row | 1 << j for j, row in enumerate(h.rows)]
    rows = []
    for i, g_row in enumerate(g.rows):
        slots = _spread(g_row | 1 << i, nh)
        rows.extend(slots * closed ^ 1 << (i * nh + j) for j, closed in enumerate(h_closed))
    return _graph_from_rows(len(rows), tuple(rows))


def _require_power(t: int) -> None:
    if t < 1:
        raise DomainError("bad_power", f"power t must be >= 1, got {rationals._shown_in_message(t)}")


def _capped_power(base: int, t: int, limit: int) -> int:
    """base**t, or a number over limit when base**t is; the exponent is
    capped at limit's bit length, past which base**t overshoots unless base <= 1."""
    return base ** min(t, limit.bit_length())


def _power_by_squaring(x, t: int, product):
    """x multiplied by itself t times, t >= 1, under an associative product.

    Any bracketing of t equal factors gives the left fold's result, so
    repeated squaring returns it in at most 2 log2(t) products.  Every
    t-fold object of the package is built here: the graph powers, the
    product sets, the tensored certificate and the product priors, whose
    big-endian sequence encodings split at any coordinate.
    """
    result, square = None, x
    while True:
        if t & 1:
            result = square if result is None else product(result, square)
        t >>= 1
        if not t:
            return result
        square = product(square, square)


def _power(g: Graph, t: int, product) -> Graph:
    """The t-fold power by repeated squaring (`_power_by_squaring`).

    The left fold's rows' words, t - 1 times the power's, are checked
    against a `graph_product` meter first, so a one-vertex graph cannot
    loop for a huge t.
    """
    _require_power(t)
    _require_nonempty(g)
    meter = WorkMeter("graph_product")
    meter.check_size((t - 1) * _row_words(_capped_power(g.vertex_count, t, meter.limit)), "power rows")
    return _power_by_squaring(g, t, product)


@lru_cache(maxsize=None)
def or_power(g: Graph, t: int) -> Graph:
    return _power(g, t, or_product)


def and_power(g: Graph, t: int) -> Graph:
    return _power(g, t, and_product)


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    """The vertex together with its neighbors."""
    if not (0 <= v < g.vertex_count):
        raise DomainError("vertex_out_of_range", f"vertex {v} out of range for n={g.vertex_count}")
    return frozenset(_bits(g.rows[v] | 1 << v))


# ---------------------------------------------------------------------------
# Maximal independent sets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def maximal_independent_sets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All maximal independent sets, sorted lexicographically by member list.

    Runs pivoting Bron-Kerbosch on the complement graph (maximal cliques of
    the complement are exactly the maximal independent sets) as a loop over
    an explicit stack of (R, P, X) bitmasks, so no depth of search can reach
    the interpreter's recursion limit.  The pivot is the lowest-index vertex
    of P | X with the most complement-neighbours inside P (Tomita, Tanaka &
    Takahashi 2006), found in one scan of the bits of P | X that keeps the
    first maximum, and branches run in ascending vertex order, so output and
    work are deterministic.  The branches' children are pushed as the branch
    bits are walked, with no per-node vertex list.  Each search node costs
    one mis_enumeration unit; the complement rows' size is checked against
    the same budget before any row is built.
    """
    _require_nonempty(g)
    n = g.vertex_count
    meter = WorkMeter("mis_enumeration")
    meter.check_size(_row_words(n), "bitset rows")
    full = (1 << n) - 1
    co = [full ^ (row | 1 << v) for v, row in enumerate(g.rows)]
    found: list[tuple[int, ...]] = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        meter.spend(1)
        if not p:
            if not x:
                found.append(tuple(_bits(r)))
            continue
        best, rest = -1, p | x
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            score = (p & co[u]).bit_count()
            if score > best:
                best, pivot = score, u
            rest ^= low
        # branch v moves the branch vertices below it from P to X; pushing
        # from the highest v down pops the branches in ascending order
        lower = p & ~co[pivot]
        while lower:
            v = lower.bit_length() - 1
            bit = 1 << v
            lower ^= bit
            co_v = co[v]
            stack.append((r | bit, (p ^ lower) & co_v, (x | lower) & co_v))
    return tuple(sorted(found))


def independence_number(g: Graph) -> int:
    """The largest independent set's size, by branch and bound on the rows.

    A node holds a chosen set's size and its candidates P: the vertices with
    no neighbour chosen.  Candidates with no neighbour in P join the set at
    once, so an edgeless graph is one node.  The rest are covered greedily by
    cliques of g, each built by ANDing rows, and alpha(g[P]) is at most the
    number of cliques (a greedy colouring of the complement, Tomita & Seki
    2003).  Branching takes the vertices from the last clique back; a vertex
    in clique k leaves only vertices of cliques <= k, so the node stops as
    soon as size + k is no better than the best set found (San Segundo,
    Rodriguez-Losada & Jimenez 2011).  Children are made one at a time from
    an explicit stack of open nodes, so no depth of search reaches the
    recursion limit and the stack holds one mask and one branch list per
    level, not one mask per child.  The first best set is a greedy one
    (take the lowest candidate, drop its closed row, repeat), so a graph
    whose greedy set meets the root's cover bound, such as disjoint cliques,
    is one node.  The greedy pass costs one mis_enumeration unit per vertex
    and each node one unit per candidate it scans; the rows' size is checked
    against the same budget first.
    """
    _require_nonempty(g)
    n = g.vertex_count
    meter = WorkMeter("mis_enumeration")
    meter.check_size(_row_words(n), "bitset rows")
    rows = g.rows
    meter.spend(n)
    best, p = 0, (1 << n) - 1
    while p:
        low = p & -p
        p &= ~(low | rows[low.bit_length() - 1])
        best += 1
    size, p = 0, (1 << n) - 1
    open_nodes = []
    while True:
        meter.spend(p.bit_count())
        free = vertex_mask([v for v in _bits(p) if not rows[v] & p])
        p ^= free
        size += free.bit_count()
        best = max(best, size)
        branch = []  # (vertex, clique number) in cover order, past the bound
        uncovered, k = p, 0
        while uncovered:
            k += 1
            clique = uncovered
            while clique:
                low = clique & -clique
                v = low.bit_length() - 1
                uncovered ^= low
                clique &= rows[v]
                if size + k > best:
                    branch.append((v, k))
        open_nodes.append([size, p, branch])
        while open_nodes:
            node = open_nodes[-1]
            size, p, branch = node
            if branch and size + branch[-1][1] > best:
                v, _ = branch.pop()
                node[1] = p = p ^ 1 << v
                size, p = size + 1, p & ~rows[v]
                break
            open_nodes.pop()
        else:
            return best


def _set_product(left, right):
    """(width, sets) of the products A x B of the left and right families'
    sets, in left-major order: member a of A and b of B give a * width_B + b."""
    (left_width, left_sets), (width, right_sets) = left, right
    return left_width * width, [tuple(a * width + b for a in x for b in y) for x in left_sets for y in right_sets]


def product_sets(base_sets, n: int, t: int) -> list[tuple[int, ...]]:
    """The members of S1 x ... x St for every t-tuple of base sets, t >= 1.

    Tuples come in `itertools.product` order over `base_sets`, and each
    product's members are encoded through the sequence numbering of an
    n-vertex graph's t-fold power; base sets in ascending order give members
    in ascending order.  The family is the t-th power of (n, base_sets) under
    `_set_product`, so products of equal prefixes are built once.  Its size
    is checked against a `mis_enumeration` meter before it is built:
    |sets|**t products of at most alpha**t members, plus t units per product,
    so a huge t is refused even where every set has one member.
    """
    alpha = max(map(len, base_sets))
    meter = WorkMeter("mis_enumeration")
    size = _capped_power(len(base_sets), t, meter.limit) * (t + _capped_power(alpha, t, meter.limit))
    meter.check_size(size, "product MIS family")
    return _power_by_squaring((n, list(base_sets)), t, _set_product)[1]


def mis_of_or_power(g: Graph, t: int) -> tuple[tuple[int, ...], ...]:
    """Maximal independent sets of the t-fold OR power, built as products.

    Every maximal independent set of the power factors into one maximal
    independent set per coordinate, so the family is the full Cartesian
    product, |MIS|**t sets (`product_sets`), sorted by member list.
    """
    _require_power(t)
    return tuple(sorted(product_sets(maximal_independent_sets(g), g.vertex_count, t)))


# ---------------------------------------------------------------------------
# Vertex transitivity
# ---------------------------------------------------------------------------

def is_vertex_transitive(g: Graph) -> bool:
    """Brute-force orbit check: some automorphism sends vertex 0 to every vertex.

    Vertex-transitive graphs are regular, so any other graph is refused at
    once.  For each image of vertex 0, a backtrack on the rows places
    vertices 1, 2, ... in turn: vertex k may go to an unused w whose row
    agrees with k's on every vertex already placed.  A hard vertex cap keeps
    the permutation search at desk scale.
    """
    _require_nonempty(g)
    n = g.vertex_count
    if n > AUTOMORPHISM_VERTEX_CAP:
        raise ResourceBudgetError("automorphism_vertices", AUTOMORPHISM_VERTEX_CAP)
    rows = g.rows
    if len(set(map(int.bit_count, rows))) > 1:
        return False

    def extends(image: list[int]) -> bool:
        k = len(image)
        if k == n:
            return True
        for w in range(n):
            if w not in image and all((rows[k] >> j & 1) == (rows[w] >> image[j] & 1) for j in range(k)):
                image.append(w)
                if extends(image):
                    return True
                image.pop()
        return False

    return all(extends([w]) for w in range(1, n))


# ---------------------------------------------------------------------------
# Associated hypergraph
# ---------------------------------------------------------------------------

def rank_masks(masks, within: int) -> tuple[int, ...]:
    """Each mask's bits inside `within`, renumbered by rank: the k-th lowest
    set bit of `within` becomes bit k.  Bits outside `within` are dropped.
    """
    runs = []  # (lowest bit, mask of its length, first rank) per run of ones in within
    rank = 0
    rest = within
    while rest:
        low = (rest & -rest).bit_length() - 1
        ones = rest >> low
        length = (ones ^ (ones + 1)).bit_length() - 1
        runs.append((low, (1 << length) - 1, rank))
        rank += length
        rest ^= ((1 << length) - 1) << low
    return tuple(sum(((m >> low) & run) << first for low, run, first in runs) for m in masks)


def _canonical(masks) -> tuple[int, ...]:
    """Masks in the order of their ascending bit lists, compared lexicographically."""
    return tuple(sorted(masks, key=_bits))


def trace_masks(T, theta: Graph, t: int) -> tuple[int, ...]:
    """The distinct nonempty traces on T of the closed neighbourhoods of
    theta's t-fold AND power, as masks over the ranks of T's sorted members.

    Traces are ordered by their member lists, compared lexicographically.
    T only needs to be a nonempty set of in-range sequence indices.
    """
    _require_nonempty(theta)
    _require_power(t)
    members = tuple(sorted(set(T)))
    if not members:
        raise DomainError("empty_vertex_set", "T must be nonempty")
    if members[0] < 0:
        raise DomainError("vertex_out_of_range", f"sequence index {members[0]} is negative")
    # |V|**t capped at the largest member, so exact whenever a member reaches it
    total = _capped_power(theta.vertex_count, t, members[-1])
    for v in members:
        if v >= total:
            raise DomainError("vertex_out_of_range", f"sequence index {v} out of range for |V|^t={total}")
    traces = set(rank_masks(_closed_power_rows(theta, t), vertex_mask(members)))
    traces.discard(0)
    return _canonical(traces)


def product_traces(families) -> tuple[int, tuple[int, ...]]:
    """(width, traces) of T = S1 x ... x St from each factor's (|Si|, traces).

    The trace of a product neighbourhood on a product set is the product of
    the factors' traces, so the family is the Kronecker product of the
    factor families.  T's members in sorted order are lexicographic in the
    coordinate ranks, so the trace A x B is A's mask spread to one bit per
    block of B's width, times B's mask.  The result is the family
    `trace_masks` gives for T, in the same order.  Its size, traces times
    64-bit words each, is checked against a `trace_family` meter before it
    is built.
    """
    width, count = 1, 1
    for w, masks in families:
        width *= w
        count *= len(masks)
    WorkMeter("trace_family").check_size(count * -(-width // 64), "product trace family")
    width, product = 1, (1,)
    for w, masks in families:
        spread = [_spread(a, w) for a in product]
        product = tuple(s * b for s in spread for b in masks)
        width *= w
    return width, _canonical(product)


def associated_hypergraph(T, theta: Graph, t: int) -> Hypergraph:
    """Hypergraph on T whose hyperedges are the nonempty traces of closed
    neighborhoods of the t-fold AND power of theta.

    T is expected to be a maximal independent set of the companion confusion
    graph's OR power (the caller validates that); here T only needs to be a
    nonempty set of in-range sequence indices.  The hyperedges are
    `trace_masks` read back as vertex tuples, in its order.
    """
    masks = trace_masks(T, theta, t)
    members = tuple(sorted(set(T)))
    return Hypergraph(members, tuple(tuple(members[r] for r in _bits(m)) for m in masks))


def _closed_power_rows(theta: Graph, t: int) -> tuple[int, ...]:
    """Closed-neighbourhood rows of the t-fold AND power of theta."""
    return tuple(row | 1 << v for v, row in enumerate(and_power(theta, t).rows))
