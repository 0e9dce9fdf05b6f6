//! 3D grids with ghost layers (the data structure behind MiniGhost and the
//! stencil kernels).
//!
//! A [`Grid3d`] stores an `nx × ny × nz` local block surrounded by a
//! one-cell ghost layer.  The mini-applications exchange the six faces with
//! their neighbours (outside intra-parallel sections) and then apply a
//! stencil to the interior (inside sections).

use serde::{Deserialize, Serialize};

/// A 3D grid of `f64` values with a one-cell ghost layer on every side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid3d {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Row-major data of size `(nx + 2) * (ny + 2) * (nz + 2)`.
    data: Vec<f64>,
}

/// The six faces of a 3D block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Face {
    /// −x face.
    West,
    /// +x face.
    East,
    /// −y face.
    South,
    /// +y face.
    North,
    /// −z face.
    Down,
    /// +z face.
    Up,
}

impl Grid3d {
    /// Creates a grid filled with `value` (ghost cells included).
    pub fn filled(nx: usize, ny: usize, nz: usize, value: f64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        Grid3d {
            nx,
            ny,
            nz,
            data: vec![value; (nx + 2) * (ny + 2) * (nz + 2)],
        }
    }

    /// Creates a grid whose interior is initialized by `f(x, y, z)` (local,
    /// zero-based coordinates); ghost cells are zero.
    pub fn from_fn<F: Fn(usize, usize, usize) -> f64>(
        nx: usize,
        ny: usize,
        nz: usize,
        f: F,
    ) -> Self {
        let mut g = Self::filled(nx, ny, nz, 0.0);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let v = f(x, y, z);
                    g.set(x, y, z, v);
                }
            }
        }
        g
    }

    /// Interior dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Number of interior cells.
    fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline]
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        // Coordinates are ghost-inclusive: 0..=nx+1 etc.
        (z * (self.ny + 2) + y) * (self.nx + 2) + x
    }

    /// Value of the interior cell `(x, y, z)` (zero-based interior
    /// coordinates).
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[self.index(x + 1, y + 1, z + 1)]
    }

    /// Sets the interior cell `(x, y, z)`.
    #[inline]
    pub(crate) fn set(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let i = self.index(x + 1, y + 1, z + 1);
        self.data[i] = v;
    }

    /// Value at ghost-inclusive coordinates (`0..=nx+1` etc.), used by the
    /// stencil kernels.
    #[inline]
    pub(crate) fn get_raw(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[self.index(x, y, z)]
    }

    /// Sets a value at ghost-inclusive coordinates.
    #[inline]
    pub(crate) fn set_raw(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let i = self.index(x, y, z);
        self.data[i] = v;
    }

    /// One ghost-inclusive x-row (length `nx + 2`) at raw coordinates
    /// `(0.., y, z)`.  Rows are the contiguous unit of the storage layout;
    /// the blocked stencil kernels walk rows as slices so the inner loops
    /// compile to bounds-check-free, vectorizable code instead of one
    /// indexed load per stencil point.
    #[inline]
    pub(crate) fn raw_row(&self, y: usize, z: usize) -> &[f64] {
        let start = self.index(0, y, z);
        &self.data[start..start + self.nx + 2]
    }

    /// The interior cells of row `(y, z)` (interior coordinates, length
    /// `nx`) as a mutable slice.
    #[inline]
    pub(crate) fn interior_row_mut(&mut self, y: usize, z: usize) -> &mut [f64] {
        let start = self.index(1, y + 1, z + 1);
        let nx = self.nx;
        &mut self.data[start..start + nx]
    }

    /// Length of one ghost-inclusive x-row (`nx + 2`); the row stride of
    /// the plane slabs returned by [`Grid3d::interior_plane_slabs_mut`].
    #[inline]
    pub(crate) fn raw_row_len(&self) -> usize {
        self.nx + 2
    }

    /// Splits the grid into one mutable ghost-inclusive z-plane slab per
    /// *interior* plane (raw planes `1..=nz`, each `(nx+2) * (ny+2)` long,
    /// row stride [`Grid3d::raw_row_len`]).
    ///
    /// The slabs are disjoint, so a task pool can hand each tile of planes
    /// to a different worker without any aliasing: this is the mutable
    /// surface behind the pool-parallel stencil sweeps.
    pub(crate) fn interior_plane_slabs_mut(&mut self) -> Vec<&mut [f64]> {
        let plane = (self.nx + 2) * (self.ny + 2);
        self.data.chunks_mut(plane).skip(1).take(self.nz).collect()
    }

    /// Copies the interior cells into a flat vector (x fastest, then y, z) —
    /// the layout used when the grid is exposed to the task workspace.
    pub fn interior_to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.interior_len());
        for z in 0..self.nz {
            for y in 0..self.ny {
                for x in 0..self.nx {
                    out.push(self.get(x, y, z));
                }
            }
        }
        out
    }

    /// Extracts the interior layer adjacent to `face` as a flat vector (the
    /// data a process sends to its neighbour on that side).
    pub fn extract_face(&self, face: Face) -> Vec<f64> {
        let (nx, ny, nz) = self.dims();
        match face {
            Face::West | Face::East => {
                let x = if face == Face::West { 0 } else { nx - 1 };
                let mut out = Vec::with_capacity(ny * nz);
                for z in 0..nz {
                    for y in 0..ny {
                        out.push(self.get(x, y, z));
                    }
                }
                out
            }
            Face::South | Face::North => {
                let y = if face == Face::South { 0 } else { ny - 1 };
                let mut out = Vec::with_capacity(nx * nz);
                for z in 0..nz {
                    for x in 0..nx {
                        out.push(self.get(x, y, z));
                    }
                }
                out
            }
            Face::Down | Face::Up => {
                let z = if face == Face::Down { 0 } else { nz - 1 };
                let mut out = Vec::with_capacity(nx * ny);
                for y in 0..ny {
                    for x in 0..nx {
                        out.push(self.get(x, y, z));
                    }
                }
                out
            }
        }
    }

    /// Number of cells in the face perpendicular to `face`.
    fn face_len(&self, face: Face) -> usize {
        let (nx, ny, nz) = self.dims();
        match face {
            Face::West | Face::East => ny * nz,
            Face::South | Face::North => nx * nz,
            Face::Down | Face::Up => nx * ny,
        }
    }

    /// Fills the ghost layer on `face` from a flat vector received from the
    /// neighbour on that side (the neighbour's opposite interior face).
    ///
    /// # Panics
    /// Panics if the vector has the wrong length.
    pub fn fill_ghost(&mut self, face: Face, values: &[f64]) {
        let (nx, ny, nz) = self.dims();
        assert_eq!(
            values.len(),
            self.face_len(face),
            "ghost face size mismatch"
        );
        let mut it = values.iter();
        match face {
            Face::West | Face::East => {
                let gx = if face == Face::West { 0 } else { nx + 1 };
                for z in 0..nz {
                    for y in 0..ny {
                        self.set_raw(gx, y + 1, z + 1, *it.next().expect("checked"));
                    }
                }
            }
            Face::South | Face::North => {
                let gy = if face == Face::South { 0 } else { ny + 1 };
                for z in 0..nz {
                    for x in 0..nx {
                        self.set_raw(x + 1, gy, z + 1, *it.next().expect("checked"));
                    }
                }
            }
            Face::Down | Face::Up => {
                let gz = if face == Face::Down { 0 } else { nz + 1 };
                for y in 0..ny {
                    for x in 0..nx {
                        self.set_raw(x + 1, y + 1, gz, *it.next().expect("checked"));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Face {
        const ALL: [Face; 6] = [
            Face::West,
            Face::East,
            Face::South,
            Face::North,
            Face::Down,
            Face::Up,
        ];
    }

    #[test]
    fn construction_and_accessors() {
        let g = Grid3d::filled(2, 3, 4, 1.5);
        assert_eq!(g.dims(), (2, 3, 4));
        assert_eq!(g.interior_len(), 24);
        assert_eq!(g.get(1, 2, 3), 1.5);
    }

    #[test]
    fn from_fn_and_round_trip_through_vec() {
        let g = Grid3d::from_fn(3, 2, 2, |x, y, z| (x + 10 * y + 100 * z) as f64);
        assert_eq!(g.get(2, 1, 1), 112.0);
        let v = g.interior_to_vec();
        assert_eq!(v.len(), 12);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 1.0);
        assert_eq!(v[3], 10.0);
        let h = Grid3d::from_fn(3, 2, 2, |x, y, z| v[x + 3 * (y + 2 * z)]);
        assert_eq!(g, h);
    }

    #[test]
    fn ghost_cells_start_at_zero_and_are_separate_from_interior() {
        let mut g = Grid3d::filled(2, 2, 2, 3.0);
        // Raw coordinate (0, 1, 1) is the west ghost of interior (0, 0, 0).
        assert_eq!(g.get_raw(0, 1, 1), 3.0);
        g.set_raw(0, 1, 1, -1.0);
        assert_eq!(g.get(0, 0, 0), 3.0, "interior untouched by ghost write");
    }

    #[test]
    fn face_extraction_and_ghost_fill_are_inverse_shapes() {
        let g = Grid3d::from_fn(3, 4, 5, |x, y, z| (x + 10 * y + 100 * z) as f64);
        for face in Face::ALL {
            let f = g.extract_face(face);
            assert_eq!(f.len(), g.face_len(face), "{face:?}");
            let mut h = g.clone();
            h.fill_ghost(face, &f);
        }
        // Spot-check the Up face: z = nz-1 plane.
        let up = g.extract_face(Face::Up);
        assert_eq!(up[0], g.get(0, 0, 4));
        assert_eq!(*up.last().unwrap(), g.get(2, 3, 4));
    }

    #[test]
    fn neighbour_exchange_matches_physical_adjacency() {
        // Two blocks stacked along z: the Up face of the lower block becomes
        // the Down ghost of the upper block.
        let lower = Grid3d::from_fn(2, 2, 2, |x, y, z| (x + 2 * y + 4 * z) as f64 + 100.0);
        let mut upper = Grid3d::filled(2, 2, 2, 0.0);
        upper.fill_ghost(Face::Down, &lower.extract_face(Face::Up));
        // Ghost cell below upper (0,0,0) = lower (0,0,1) = 104.
        assert_eq!(upper.get_raw(1, 1, 0), 104.0);
        assert_eq!(upper.get_raw(2, 2, 0), 107.0);
    }

    #[test]
    #[should_panic]
    fn ghost_fill_rejects_wrong_length() {
        let mut g = Grid3d::filled(2, 2, 2, 0.0);
        g.fill_ghost(Face::Up, &[1.0, 2.0, 3.0]);
    }
}
