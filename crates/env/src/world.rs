//! Shared spatial world model: a room-partitioned occupancy grid and the
//! routes planned on it.

use crate::action::Name;
use embodied_exec::{astar_in, AstarScratch, Cell, DenseGrid, NavGrid, PlanError};
use std::collections::HashMap;
use std::rc::Rc;

/// A rectangular room within the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Room {
    /// Room index (stable identifier used in entity names), which is also
    /// its position in [`GridWorld::rooms`].
    pub id: usize,
    /// Inclusive min corner.
    pub min: Cell,
    /// Inclusive max corner.
    pub max: Cell,
}

impl Room {
    /// Whether `cell` lies inside the room.
    pub fn contains(&self, cell: Cell) -> bool {
        (self.min.x..=self.max.x).contains(&cell.x) && (self.min.y..=self.max.y).contains(&cell.y)
    }

    /// The room's center cell.
    pub fn center(&self) -> Cell {
        Cell::new((self.min.x + self.max.x) / 2, (self.min.y + self.max.y) / 2)
    }
}

/// A grid world partitioned into rooms connected by doorways.
///
/// Walls separate rooms; each interior wall has one doorway cell, producing
/// the multi-room navigation structure of TDW-MAT / VirtualHome scenes.
///
/// Walls are a row-major bitmap and every cell carries the index of its
/// room, painted once at construction, so [`NavGrid::passable`],
/// [`GridWorld::room_of`] and [`GridWorld::same_room`] are a bounds check
/// and an index.
///
/// Nothing changes a world after construction, so [`GridWorld::route`]
/// plans each route once and shares it with every later query.
#[derive(Debug, Clone)]
pub struct GridWorld {
    /// The wall bitmap.
    walls: DenseGrid,
    /// Every route queried so far, keyed by its endpoints.
    routes: HashMap<(Cell, Cell), Result<Route, PlanError>>,
    /// The buffers every search on `walls` runs in.
    scratch: AstarScratch,
    rooms: Vec<Room>,
    /// Each room's name (`room_{id}`), built once: `Room` is `Copy`, so
    /// the shared names live here, indexed like `rooms`.
    room_names: Vec<Name>,
    /// The location of a cell in no room, shared by every doorway.
    nowhere: Name,
    /// Each cell's position in `rooms`, indexed like `walls`; [`NO_ROOM`] on
    /// walls and doorways.
    room_index: Vec<u32>,
}

/// The `room_index` of a cell in no room.
const NO_ROOM: u32 = u32::MAX;

impl GridWorld {
    /// An open (single-room) world.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is < 3.
    pub fn open(width: i32, height: i32) -> Self {
        Layout::open(width, height).build()
    }

    /// A world split into `cols` rooms side-by-side, each wall pierced by a
    /// doorway at mid-height.
    ///
    /// # Panics
    ///
    /// Panics if the requested rooms don't fit (each needs ≥ 3 columns).
    pub fn rooms_in_row(width: i32, height: i32, cols: usize) -> Self {
        Layout::rooms_in_row(width, height, cols).build()
    }

    /// A world partitioned into a `cols` × `rows` lattice of rooms, each
    /// `room_w` × `room_h` cells, with a doorway in every shared wall —
    /// the floor-plan family used for custom household/transport scenes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is < 1 or a room side is < 3.
    pub fn room_grid(cols: usize, rows: usize, room_w: i32, room_h: i32) -> Self {
        Layout::room_grid(cols, rows, room_w, room_h).build()
    }

    /// Grid height.
    pub fn grid_height(&self) -> i32 {
        self.walls.height()
    }

    /// The rooms of this world.
    pub fn rooms(&self) -> &[Room] {
        &self.rooms
    }

    /// The shared name of the room with id `id` (`room_{id}`), used in
    /// prompts and subgoals.
    ///
    /// # Panics
    ///
    /// Panics if no room has that id.
    pub fn room_name(&self, id: usize) -> &Name {
        &self.room_names[id]
    }

    /// The shared name of the room containing `cell`, or one shared empty
    /// name for a cell in no room (a doorway or a wall).
    pub fn location_name(&self, cell: Cell) -> &Name {
        self.room_of(cell)
            .map_or(&self.nowhere, |room| &self.room_names[room.id])
    }

    /// The room containing `cell`, if any (wall cells belong to no room).
    pub fn room_of(&self, cell: Cell) -> Option<&Room> {
        let slot = self.room_index[self.walls.index(cell)?];
        (slot != NO_ROOM).then(|| &self.rooms[slot as usize])
    }

    /// Whether two cells are in the same room (false if either is a wall).
    pub fn same_room(&self, a: Cell, b: Cell) -> bool {
        match (self.room_of(a), self.room_of(b)) {
            (Some(ra), Some(rb)) => ra.id == rb.id,
            _ => false,
        }
    }

    /// Where navigation toward `target` aims: `target` itself when it is
    /// passable, else its first passable [`Cell::neighbors4`] cell, else
    /// `from`, staying put.
    pub fn nav_goal(&self, target: Cell, from: Cell) -> Cell {
        if self.passable(target) {
            return target;
        }
        target
            .neighbors4()
            .into_iter()
            .find(|&c| self.passable(c))
            .unwrap_or(from)
    }

    /// The shortest route from `from` to `goal`, as [`embodied_exec::astar`]
    /// plans it. The first query for a pair runs the search; later ones
    /// share its result, errors included. Callers bill
    /// `route.nodes_expanded` on every query all the same.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidEndpoint`] if either endpoint is a wall or out
    /// of bounds, [`PlanError::NoPath`] if the goal is unreachable.
    pub fn route(&mut self, from: Cell, goal: Cell) -> Result<Route, PlanError> {
        let GridWorld {
            walls,
            routes,
            scratch,
            ..
        } = self;
        routes
            .entry((from, goal))
            .or_insert_with(|| {
                let nodes_expanded = astar_in(scratch, walls, from, goal)?;
                Ok(Route {
                    path: scratch.path().into(),
                    nodes_expanded,
                })
            })
            .clone()
    }
}

/// A planned route as [`GridWorld::route`] keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Cells from start to goal inclusive, shared by every query for this
    /// pair of endpoints.
    pub path: Rc<[Cell]>,
    /// Nodes the search popped from its open list.
    pub nodes_expanded: usize,
}

impl Route {
    /// Number of moves along the path.
    pub fn length(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

impl NavGrid for GridWorld {
    fn width(&self) -> i32 {
        self.walls.width()
    }
    fn height(&self) -> i32 {
        self.walls.height()
    }
    fn passable(&self, cell: Cell) -> bool {
        self.walls.passable(cell)
    }
}

/// A world's geometry as its constructors lay it out, before
/// [`Layout::build`] makes it dense.
#[derive(Debug, Clone)]
struct Layout {
    width: i32,
    height: i32,
    rooms: Vec<Room>,
    walls: Vec<Cell>,
}

impl Layout {
    fn open(width: i32, height: i32) -> Self {
        assert!(width >= 3 && height >= 3, "world too small");
        Layout {
            width,
            height,
            rooms: vec![Room {
                id: 0,
                min: Cell::new(0, 0),
                max: Cell::new(width - 1, height - 1),
            }],
            walls: Vec::new(),
        }
    }

    fn rooms_in_row(width: i32, height: i32, cols: usize) -> Self {
        assert!(cols >= 1, "need at least one room");
        assert!(
            width >= (cols as i32) * 3 + (cols as i32 - 1),
            "width {width} too small for {cols} rooms"
        );
        let mut world = Self::open(width, height);
        if cols == 1 {
            return world;
        }
        let span = width / cols as i32;
        let mut rooms = Vec::new();
        let mut start_x = 0;
        for id in 0..cols {
            let end_x = if id == cols - 1 {
                width - 1
            } else {
                start_x + span - 2
            };
            rooms.push(Room {
                id,
                min: Cell::new(start_x, 0),
                max: Cell::new(end_x, height - 1),
            });
            if id != cols - 1 {
                let wall_x = start_x + span - 1;
                let door_y = height / 2;
                for y in 0..height {
                    if y != door_y {
                        world.walls.push(Cell::new(wall_x, y));
                    }
                }
                start_x = wall_x + 1;
            }
        }
        world.rooms = rooms;
        world
    }

    fn room_grid(cols: usize, rows: usize, room_w: i32, room_h: i32) -> Self {
        assert!(cols >= 1 && rows >= 1, "need at least one room");
        assert!(room_w >= 3 && room_h >= 3, "rooms must be at least 3×3");
        // +1 cell of wall between adjacent rooms.
        let width = cols as i32 * (room_w + 1) - 1;
        let height = rows as i32 * (room_h + 1) - 1;
        let mut world = Self::open(width.max(3), height.max(3));
        world.rooms.clear();
        for ry in 0..rows {
            for rx in 0..cols {
                let id = ry * cols + rx;
                let min = Cell::new(rx as i32 * (room_w + 1), ry as i32 * (room_h + 1));
                let max = Cell::new(min.x + room_w - 1, min.y + room_h - 1);
                world.rooms.push(Room { id, min, max });
                // Vertical wall to the right, with a mid-height doorway.
                if rx + 1 < cols {
                    let wall_x = max.x + 1;
                    let door_y = min.y + room_h / 2;
                    for y in min.y..=max.y {
                        if y != door_y {
                            world.walls.push(Cell::new(wall_x, y));
                        }
                    }
                }
                // Horizontal wall below, with a mid-width doorway.
                if ry + 1 < rows {
                    let wall_y = max.y + 1;
                    let door_x = min.x + room_w / 2;
                    for x in min.x..=max.x {
                        if x != door_x {
                            world.walls.push(Cell::new(x, wall_y));
                        }
                    }
                    // Seal the wall intersection corner.
                    if rx + 1 < cols {
                        world.walls.push(Cell::new(max.x + 1, wall_y));
                    }
                }
            }
        }
        world
    }

    /// Paints each room's rectangle, row by row, into the room index, then
    /// blocks every wall cell and clears it from the index: O(cells).
    fn build(self) -> GridWorld {
        let mut walls = DenseGrid::open(self.width, self.height);
        let mut room_index = vec![NO_ROOM; self.width as usize * self.height as usize];
        for (slot, room) in self.rooms.iter().enumerate() {
            let span = (room.max.x - room.min.x) as usize;
            for y in room.min.y..=room.max.y {
                let row = walls
                    .index(Cell::new(room.min.x, y))
                    .expect("rooms lie inside the grid");
                room_index[row..=row + span].fill(slot as u32);
            }
        }
        for &cell in &self.walls {
            walls.block(cell);
            if let Some(i) = walls.index(cell) {
                room_index[i] = NO_ROOM;
            }
        }
        debug_assert!(self.rooms.iter().enumerate().all(|(i, r)| r.id == i));
        GridWorld {
            walls,
            routes: HashMap::new(),
            scratch: AstarScratch::default(),
            room_names: (0..self.rooms.len())
                .map(|id| format!("room_{id}").into())
                .collect(),
            nowhere: Name::default(),
            rooms: self.rooms,
            room_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_exec::astar;

    #[test]
    fn open_world_is_one_room() {
        let w = GridWorld::open(10, 8);
        assert_eq!(w.rooms().len(), 1);
        assert!(w.passable(Cell::new(5, 5)));
    }

    #[test]
    fn rooms_in_row_partition_and_connect() {
        let w = GridWorld::rooms_in_row(20, 10, 4);
        assert_eq!(w.rooms().len(), 4);
        // Every room center reachable from every other (doors work).
        for a in w.rooms() {
            for b in w.rooms() {
                let plan = astar(&w, a.center(), b.center());
                assert!(plan.is_ok(), "room {} unreachable from {}", b.id, a.id);
            }
        }
    }

    #[test]
    fn walls_separate_rooms() {
        let w = GridWorld::rooms_in_row(20, 10, 2);
        let r0 = w.rooms()[0].center();
        let r1 = w.rooms()[1].center();
        assert!(!w.same_room(r0, r1));
        assert!(w.same_room(r0, r0));
        // Cross-room path must be longer than straight-line distance
        // because it detours through the doorway (unless the door is on the
        // straight line, so just check it exists and is connected).
        let plan = astar(&w, r0, r1).unwrap();
        assert!(plan.length() as u32 >= r0.manhattan(r1));
    }

    #[test]
    fn room_of_identifies_rooms_and_walls() {
        let w = GridWorld::rooms_in_row(20, 10, 2);
        let center0 = w.rooms()[0].center();
        assert_eq!(w.room_of(center0).unwrap().id, 0);
        // Find a wall cell: boundary between the rooms, off the door row.
        let wall_x = w.rooms()[0].max.x + 1;
        let wall = Cell::new(wall_x, 0);
        assert!(!w.passable(wall));
        assert!(w.room_of(wall).is_none());
    }

    #[test]
    fn room_grid_is_fully_connected() {
        let w = GridWorld::room_grid(3, 2, 5, 4);
        assert_eq!(w.rooms().len(), 6);
        let origin = w.rooms()[0].center();
        for room in w.rooms() {
            assert!(
                astar(&w, origin, room.center()).is_ok(),
                "room {} unreachable",
                room.id
            );
        }
    }

    #[test]
    fn room_grid_rooms_are_disjoint() {
        let w = GridWorld::room_grid(2, 2, 4, 4);
        for a in w.rooms() {
            for b in w.rooms() {
                if a.id != b.id {
                    assert!(
                        !a.contains(b.center()),
                        "rooms {} and {} overlap",
                        a.id,
                        b.id
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 3×3")]
    fn tiny_room_grid_rejected() {
        let _ = GridWorld::room_grid(2, 2, 2, 4);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn too_many_rooms_rejected() {
        let _ = GridWorld::rooms_in_row(8, 8, 4);
    }

    /// `room_of` and `passable` agree with a linear scan of the rooms and
    /// the wall list on every cell and on a one-cell ring outside the grid.
    #[test]
    fn dense_index_matches_a_linear_scan() {
        let mut layouts = vec![Layout::open(3, 3), Layout::open(10, 8)];
        layouts.extend((1..=5).map(|cols| Layout::rooms_in_row(28, 10, cols)));
        layouts.extend(
            [
                (1, 1, 3, 3),
                (2, 2, 4, 4),
                (3, 2, 5, 4),
                (1, 4, 3, 5),
                (4, 1, 6, 3),
                (3, 3, 4, 7),
            ]
            .map(|(cols, rows, w, h)| Layout::room_grid(cols, rows, w, h)),
        );
        for layout in layouts {
            let world = layout.clone().build();
            for y in -1..=layout.height {
                for x in -1..=layout.width {
                    let cell = Cell::new(x, y);
                    let wall = layout.walls.contains(&cell);
                    let in_bounds =
                        (0..layout.width).contains(&x) && (0..layout.height).contains(&y);
                    assert_eq!(
                        world.passable(cell),
                        in_bounds && !wall,
                        "{cell} in {layout:?}"
                    );
                    let room = if wall {
                        None
                    } else {
                        layout.rooms.iter().find(|r| r.contains(cell))
                    };
                    assert_eq!(world.room_of(cell), room, "{cell} in {layout:?}");
                }
            }
        }
    }

    #[test]
    fn nav_goal_snaps_to_the_first_passable_neighbour() {
        let w = GridWorld::rooms_in_row(20, 10, 2);
        let from = w.rooms()[0].center();
        let door_row = Cell::new(w.rooms()[0].max.x + 1, 5);
        assert_eq!(w.nav_goal(door_row, from), door_row);
        let wall = Cell::new(door_row.x, 0);
        assert_eq!(w.nav_goal(wall, from), Cell::new(wall.x + 1, 0));
        assert_eq!(w.nav_goal(Cell::new(-5, -5), from), from);
    }

    #[test]
    fn room_names_are_stable() {
        let w = GridWorld::rooms_in_row(20, 10, 3);
        assert_eq!(&**w.room_name(2), "room_2");
    }
}
