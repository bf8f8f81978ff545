"""K-ary hierarchical grid over the time horizon.

The time axis is recursively subdivided: level 0 is a single root cell whose
half-open interval contains [0, T); every cell longer than one unit has
exactly K equal children one level below, so the leaves are unit cells.  A
non-negative shift moves the whole grid left so that structural boundaries
fall at randomized positions relative to the jobs while all coordinates stay
integral.

Cells are built on first access: ``build_grid`` makes only the root, and a
cell builds each child the first time it is asked for it, by index through
``GridCell.child``, then keeps it.  ``cell_chain`` descends that way, so a
chain builds one cell per level, not the K siblings of each; reading
``children`` builds the rest and keeps the full tuple.  A solve therefore
pays for the cells on its releases' chains, not for the whole tree over the
horizon or for K cells a level, and one grid still hands out exactly one
object per cell.  Cells compare by identity, so structures built on two
grids never mix.  ``GridCell`` is a slotted class, not a frozen dataclass,
because a solve builds dozens of cells and the frozen form costs several
times as much per cell (its docstring has the detail).  Cells hold no parent link:
``cell_chain`` and ``cell_path`` descend from the root, and ``cell_at``
reads the chain.  ``cell_chain`` is the one root containment check.

A cell's *pieces* cut it into equal intervals: units in a cell of length K
or less (a leaf or a parent of leaves), its grandchild cells in any other.
``GridCell.piece_width`` is this one layout rule: a job's segments (the
``covering`` docstring) are runs of pieces, and the dynamic program's carry
holds one value per piece.
"""

from __future__ import annotations


class GridCell:
    """One grid cell: half-open interval [begin, end) at ``level``.

    Each child is built the first time ``child`` is asked for it and kept
    by index; ``children`` builds the others on its first read and keeps
    the tuple.  So one grid has exactly one object per cell.  Cells compare
    by identity; two builds of the same grid yield distinct cell objects on
    purpose, so structures from different grids cannot be mixed silently.
    The hash is on (level, begin, end), stable across runs, unlike
    ``id()``.

    A plain slotted class with its own ``__init__``, not a frozen dataclass:
    a solve builds dozens of cells, and a frozen dataclass pays an
    ``object.__setattr__`` call per field, several times the cost of the
    cell's plain assignments.  Nothing assigns to a cell after ``__init__``
    except its two children caches.
    """

    __slots__ = (
        "level",
        "begin",
        "end",
        "K",
        "length",
        "is_leaf",
        "piece_width",
        "_kids",
        "_children",
    )

    def __init__(self, level: int, begin: int, end: int, K: int):
        self.level = level
        self.begin = begin
        self.end = end
        self.K = K
        # plain attributes, not properties: the DP reads them in every table
        # and state.  piece_width is the width of the cell's pieces: 1 for a
        # leaf or a parent of leaves, the grandchild length otherwise.
        self.length = length = end - begin
        self.is_leaf = length == 1
        self.piece_width = 1 if length <= K else length // K**2
        self._kids: dict[int, GridCell] | None = None  # child index -> child, as built
        self._children: tuple[GridCell, ...] | None = None  # all K, once read

    def __repr__(self) -> str:
        return f"GridCell(level={self.level}, begin={self.begin}, end={self.end})"

    def __hash__(self) -> int:
        return hash((self.level, self.begin, self.end))

    def child(self, i: int) -> "GridCell":
        """The i-th of the K equal cells one level below, built on first
        request and kept; this must be an internal cell and 0 <= i < K."""
        kids = self._kids
        if kids is None:
            kids = self._kids = {}
        kid = kids.get(i)
        if kid is None:
            step = self.length // self.K
            x = self.begin + i * step
            kid = kids[i] = GridCell(self.level + 1, x, x + step, self.K)
        return kid

    @property
    def children(self) -> tuple["GridCell", ...]:
        """The K equal cells one level below, built on first read; empty for a leaf."""
        kids = self._children
        if kids is None:
            # from a list: see the ``dpsolver`` docstring on tuples
            kids = () if self.is_leaf else tuple([self.child(i) for i in range(self.K)])
            self._children = kids
        return kids

    def contains_point(self, x: int) -> bool:
        return self.begin <= x < self.end

    def child_index(self, x: int) -> int:
        """Index of the child containing x; x must lie in this internal cell."""
        return (x - self.begin) * self.K // self.length


class Grid:
    """K-ary cell tree over [root.begin, root.end), built lazily from the root.

    ``lmax`` is the leaf level.  ``levels[l]`` lists the level-l cells in
    order; reading it walks, and so builds, the whole tree.  Cells are
    found from ``root`` down.
    """

    def __init__(self, root: GridCell, K: int, shift: int):
        self.root = root
        self.K = K
        self.shift = shift
        lmax, length = 0, root.length
        while length > 1:
            lmax, length = lmax + 1, length // K
        self.lmax = lmax

    @property
    def levels(self) -> list[list[GridCell]]:
        levels = [[self.root]]
        while not levels[-1][0].is_leaf:
            levels.append([child for cell in levels[-1] for child in cell.children])
        return levels


def root_length(T: int, K: int, shift: int = 0) -> int:
    """Smallest K**m covering T + shift; the root's length."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    length = 1
    while length < T + shift:
        length *= K
    return length


def build_grid(T: int, K: int, shift: int = 0) -> Grid:
    """The grid whose root [-shift, -shift + K**m) covers [0, T).

    m is the least exponent making the root long enough; cells are subdivided
    into K equal children down to unit leaves.  Only the root is built here;
    the other cells are built when first reached.
    """
    length = root_length(T, K, shift)
    root = GridCell(0, -shift, -shift + length, K)
    return Grid(root=root, K=K, shift=shift)


def cell_at(grid: Grid, level: int, x: int) -> GridCell:
    """The unique level-``level`` cell whose interval contains x: that
    level's cell of ``cell_chain``."""
    if not 0 <= level <= grid.lmax:
        raise ValueError(f"level must be in 0..{grid.lmax}, got {level}")
    return cell_chain(grid, x)[level]


def cell_chain(grid: Grid, x: int) -> list[GridCell]:
    """Cells containing x, one per level, root first.  Builds only the
    cells on the chain, none of their siblings.  The one root containment
    check; the covering walks the chain of each release, so the message
    names x as one."""
    if not grid.root.contains_point(x):
        raise ValueError(
            f"release {x} outside root interval [{grid.root.begin}, {grid.root.end})"
        )
    cell = grid.root
    chain = [cell]
    while not cell.is_leaf:
        cell = cell.child(cell.child_index(x))
        chain.append(cell)
    return chain


def cell_path(grid: Grid, cell: GridCell) -> str:
    """Slash-separated child indices from the root; the root path is ''.
    The descent reads only children already built, so it builds no cell;
    a cell that is not this grid's raises ValueError."""
    parts: list[str] = []
    cur, x = grid.root, cell.begin
    if cur.contains_point(x):
        while cur.level < cell.level and cur._kids:
            i = cur.child_index(x)
            if i not in cur._kids:
                break
            parts.append(str(i))
            cur = cur._kids[i]
    if cur is not cell:
        raise ValueError(f"{cell!r} is not a cell of this grid")
    return "/".join(parts)
