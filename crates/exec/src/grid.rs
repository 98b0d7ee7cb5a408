//! Grid abstractions shared by the discrete planners.

/// An integer cell coordinate on a navigation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cell {
    /// Column, 0-based.
    pub x: i32,
    /// Row, 0-based.
    pub y: i32,
}

impl Cell {
    /// Creates a cell.
    pub const fn new(x: i32, y: i32) -> Self {
        Cell { x, y }
    }

    /// Manhattan distance to another cell — the admissible A* heuristic for
    /// 4-connected grids.
    pub fn manhattan(self, other: Cell) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// The four von-Neumann neighbours.
    pub fn neighbors4(self) -> [Cell; 4] {
        [
            Cell::new(self.x + 1, self.y),
            Cell::new(self.x - 1, self.y),
            Cell::new(self.x, self.y + 1),
            Cell::new(self.x, self.y - 1),
        ]
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A planner's view of a grid: bounds plus passability.
///
/// Environments implement this so the A* planner stays independent of any
/// particular world representation.
///
/// Contract: `passable(c)` implies `in_bounds(c)`. Planners index per-cell
/// state by `y * width + x`, so they treat every out-of-bounds cell as
/// impassable whatever `passable` says.
pub trait NavGrid {
    /// Grid width in cells.
    fn width(&self) -> i32;
    /// Grid height in cells.
    fn height(&self) -> i32;
    /// Whether an agent may occupy `cell`; false for every cell out of
    /// bounds.
    fn passable(&self, cell: Cell) -> bool;

    /// Whether `cell` lies within bounds.
    fn in_bounds(&self, cell: Cell) -> bool {
        (0..self.width()).contains(&cell.x) && (0..self.height()).contains(&cell.y)
    }
}

/// A simple owned grid for tests and standalone use: everything passable
/// except blocked cells, kept as a row-major bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseGrid {
    width: i32,
    height: i32,
    blocked: Vec<bool>,
}

impl DenseGrid {
    /// An open grid of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is non-positive.
    pub fn open(width: i32, height: i32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        DenseGrid {
            width,
            height,
            blocked: vec![false; width as usize * height as usize],
        }
    }

    /// The row-major index `y * width + x` of `cell`, or `None` out of
    /// bounds.
    pub fn index(&self, cell: Cell) -> Option<usize> {
        self.in_bounds(cell)
            .then(|| cell.y as usize * self.width as usize + cell.x as usize)
    }

    /// Marks a cell impassable. Cells out of bounds are impassable already
    /// and are ignored.
    pub fn block(&mut self, cell: Cell) -> &mut Self {
        if let Some(i) = self.index(cell) {
            self.blocked[i] = true;
        }
        self
    }

    /// Marks a vertical wall segment `x, y0..=y1` impassable.
    pub fn block_vwall(&mut self, x: i32, y0: i32, y1: i32) -> &mut Self {
        for y in y0..=y1 {
            self.block(Cell::new(x, y));
        }
        self
    }

    /// Number of blocked cells.
    pub fn blocked_count(&self) -> usize {
        self.blocked.iter().filter(|&&b| b).count()
    }
}

impl NavGrid for DenseGrid {
    fn width(&self) -> i32 {
        self.width
    }
    fn height(&self) -> i32 {
        self.height
    }
    fn passable(&self, cell: Cell) -> bool {
        self.index(cell).is_some_and(|i| !self.blocked[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        assert_eq!(Cell::new(0, 0).manhattan(Cell::new(3, 4)), 7);
        assert_eq!(Cell::new(-2, 5).manhattan(Cell::new(2, 5)), 4);
        assert_eq!(Cell::new(1, 1).manhattan(Cell::new(1, 1)), 0);
    }

    #[test]
    fn neighbors_are_adjacent() {
        let c = Cell::new(5, 5);
        for n in c.neighbors4() {
            assert_eq!(c.manhattan(n), 1);
        }
    }

    #[test]
    fn dense_grid_bounds_and_blocking() {
        let mut g = DenseGrid::open(10, 8);
        assert!(g.passable(Cell::new(0, 0)));
        assert!(!g.passable(Cell::new(10, 0)));
        assert!(!g.passable(Cell::new(-1, 3)));
        g.block(Cell::new(2, 2));
        g.block(Cell::new(2, 2));
        assert!(!g.passable(Cell::new(2, 2)));
        assert_eq!(g.blocked_count(), 1);
        g.block(Cell::new(10, 0));
        assert_eq!(g.blocked_count(), 1, "out-of-bounds blocks are ignored");
    }

    #[test]
    fn index_is_row_major_and_bounded() {
        let g = DenseGrid::open(4, 3);
        assert_eq!(g.index(Cell::new(0, 0)), Some(0));
        assert_eq!(g.index(Cell::new(3, 0)), Some(3));
        assert_eq!(g.index(Cell::new(1, 2)), Some(9));
        assert_eq!(g.index(Cell::new(4, 0)), None);
        assert_eq!(g.index(Cell::new(0, -1)), None);
        assert_eq!(g.index(Cell::new(0, 3)), None);
    }

    #[test]
    fn vwall_blocks_range() {
        let mut g = DenseGrid::open(10, 10);
        g.block_vwall(4, 0, 9);
        for y in 0..10 {
            assert!(!g.passable(Cell::new(4, y)));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_grid_rejected() {
        let _ = DenseGrid::open(0, 5);
    }
}
