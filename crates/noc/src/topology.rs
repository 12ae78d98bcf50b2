//! Mesh topology and dimension-ordered (XY) routing.

use lad_common::types::CoreId;

/// A `width × height` 2-D mesh of tiles, numbered in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
}

/// Identifier of a unidirectional link.  Links are numbered so that every
/// ordered pair of adjacent routers has a distinct id: the link leaving
/// router `r` in direction `d` is `r * 4 + d`.
pub type LinkId = usize;

/// Link direction towards larger x.
pub(crate) const EAST: usize = 0;
/// Link direction towards smaller x.
pub(crate) const WEST: usize = 1;
/// Link direction towards larger y.
pub(crate) const NORTH: usize = 2;
/// Link direction towards smaller y.
pub(crate) const SOUTH: usize = 3;

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh { width, height }
    }

    /// Mesh width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of router positions.
    pub fn num_routers(&self) -> usize {
        self.width * self.height
    }

    /// Number of unidirectional links (4 per router is an upper bound; the
    /// model simply allocates `4 * routers` slots and leaves edge links
    /// unused, trading a little memory for simple indexing).
    pub fn num_links(&self) -> usize {
        self.num_routers() * 4
    }

    /// `(x, y)` coordinates of a core.
    ///
    /// # Panics
    ///
    /// Panics if the core index is outside the mesh.
    pub fn position(&self, core: CoreId) -> (usize, usize) {
        let idx = core.index();
        assert!(
            idx < self.num_routers(),
            "core {idx} outside {}x{} mesh",
            self.width,
            self.height
        );
        (idx % self.width, idx / self.width)
    }

    /// Core at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn core_at(&self, x: usize, y: usize) -> CoreId {
        assert!(x < self.width && y < self.height, "({x},{y}) outside mesh");
        CoreId::new(y * self.width + x)
    }

    /// Manhattan hop distance between two cores (the XY route length).
    pub fn hops(&self, src: CoreId, dst: CoreId) -> usize {
        let (sx, sy) = self.position(src);
        let (dx, dy) = self.position(dst);
        sx.abs_diff(dx) + sy.abs_diff(dy)
    }

    /// The sequence of unidirectional links traversed by an XY-routed message
    /// from `src` to `dst` (X first, then Y).  Empty if `src == dst`.
    ///
    /// [`Network::send`](crate::Network::send) walks the same links without
    /// building the list; this is the reference its tests compare against.
    pub fn route(&self, src: CoreId, dst: CoreId) -> Vec<LinkId> {
        let (mut x, mut y) = self.position(src);
        let (dx, dy) = self.position(dst);
        let mut links = Vec::with_capacity(self.hops(src, dst));
        while x != dx {
            let router = y * self.width + x;
            if dx > x {
                links.push(router * 4 + EAST);
                x += 1;
            } else {
                links.push(router * 4 + WEST);
                x -= 1;
            }
        }
        while y != dy {
            let router = y * self.width + x;
            if dy > y {
                links.push(router * 4 + NORTH);
                y += 1;
            } else {
                links.push(router * 4 + SOUTH);
                y -= 1;
            }
        }
        links
    }

    /// The cores of the cluster (of `cluster_size` cores) containing `core`.
    ///
    /// Clusters are aligned contiguous blocks of the mesh: for cluster sizes
    /// that are perfect squares dividing the mesh (1, 4, 16, 64 on the
    /// 8×8 target) the cluster is the aligned `√s × √s` sub-mesh, mirroring
    /// Reactive-NUCA's fixed-center clusters.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size` is zero.
    pub fn cluster_members(&self, core: CoreId, cluster_size: usize) -> Vec<CoreId> {
        assert!(cluster_size > 0, "cluster size must be positive");
        if cluster_size == 1 {
            return vec![core];
        }
        if cluster_size >= self.num_routers() {
            return (0..self.num_routers()).map(CoreId::new).collect();
        }
        let side = (cluster_size as f64).sqrt().round() as usize;
        if side * side == cluster_size
            && self.width.is_multiple_of(side)
            && self.height.is_multiple_of(side)
        {
            let (x, y) = self.position(core);
            let bx = (x / side) * side;
            let by = (y / side) * side;
            let mut members = Vec::with_capacity(cluster_size);
            for yy in by..by + side {
                for xx in bx..bx + side {
                    members.push(self.core_at(xx, yy));
                }
            }
            members
        } else {
            // Fall back to index-contiguous clusters.
            let base = (core.index() / cluster_size) * cluster_size;
            (base..(base + cluster_size).min(self.num_routers()))
                .map(CoreId::new)
                .collect()
        }
    }

    /// The designated replica-home core of `core`'s cluster for a given line:
    /// the cluster member chosen by interleaving the line index across the
    /// cluster (Reactive-NUCA's rotational interleaving analogue).
    ///
    /// Computes `cluster_members(core, s)[line % len]` directly — this runs
    /// once per L1 miss under clustered schemes, so it must not build the
    /// member list.
    pub fn cluster_slice_for_line(
        &self,
        core: CoreId,
        cluster_size: usize,
        line_index: u64,
    ) -> CoreId {
        assert!(cluster_size > 0, "cluster size must be positive");
        if cluster_size == 1 {
            return core;
        }
        let routers = self.num_routers();
        if cluster_size >= routers {
            return CoreId::new((line_index % routers as u64) as usize);
        }
        let side = (cluster_size as f64).sqrt().round() as usize;
        if side * side == cluster_size
            && self.width.is_multiple_of(side)
            && self.height.is_multiple_of(side)
        {
            let (x, y) = self.position(core);
            let bx = (x / side) * side;
            let by = (y / side) * side;
            let k = (line_index % cluster_size as u64) as usize;
            self.core_at(bx + k % side, by + k / side)
        } else {
            // Index-contiguous fallback, possibly truncated at the mesh edge.
            let base = (core.index() / cluster_size) * cluster_size;
            let len = (base + cluster_size).min(routers) - base;
            CoreId::new(base + (line_index % len as u64) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_row_major() {
        let mesh = Mesh::new(8, 8);
        assert_eq!(mesh.position(CoreId::new(0)), (0, 0));
        assert_eq!(mesh.position(CoreId::new(7)), (7, 0));
        assert_eq!(mesh.position(CoreId::new(8)), (0, 1));
        assert_eq!(mesh.position(CoreId::new(63)), (7, 7));
        assert_eq!(mesh.core_at(3, 2), CoreId::new(19));
        assert_eq!(mesh.num_routers(), 64);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn position_rejects_out_of_range() {
        Mesh::new(4, 4).position(CoreId::new(16));
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let mesh = Mesh::new(8, 8);
        assert_eq!(mesh.hops(CoreId::new(0), CoreId::new(0)), 0);
        assert_eq!(mesh.hops(CoreId::new(0), CoreId::new(7)), 7);
        assert_eq!(mesh.hops(CoreId::new(0), CoreId::new(63)), 14);
        assert_eq!(mesh.hops(CoreId::new(9), CoreId::new(0)), 2);
        // Symmetric.
        assert_eq!(
            mesh.hops(CoreId::new(5), CoreId::new(42)),
            mesh.hops(CoreId::new(42), CoreId::new(5))
        );
    }

    #[test]
    fn route_length_matches_hops_and_is_xy() {
        let mesh = Mesh::new(8, 8);
        for (s, d) in [(0usize, 63usize), (9, 0), (3, 3), (56, 7)] {
            let src = CoreId::new(s);
            let dst = CoreId::new(d);
            let route = mesh.route(src, dst);
            assert_eq!(route.len(), mesh.hops(src, dst));
        }
        // XY: route 0 -> 9 goes east first (link direction 0 from (0,0)),
        // then north from (1,0).
        let route = mesh.route(CoreId::new(0), CoreId::new(9));
        assert_eq!(route.len(), 2);
        assert_eq!(route[0] % 4, EAST);
        assert_eq!(route[1] % 4, NORTH);
        // Reverse direction uses different unidirectional links.
        let back = mesh.route(CoreId::new(9), CoreId::new(0));
        assert!(route.iter().all(|l| !back.contains(l)));
    }

    #[test]
    fn route_links_are_within_bounds() {
        let mesh = Mesh::new(4, 4);
        for s in 0..16 {
            for d in 0..16 {
                for link in mesh.route(CoreId::new(s), CoreId::new(d)) {
                    assert!(link < mesh.num_links());
                }
            }
        }
    }

    #[test]
    fn cluster_members_square_clusters() {
        let mesh = Mesh::new(8, 8);
        // Cluster of 1.
        assert_eq!(
            mesh.cluster_members(CoreId::new(5), 1),
            vec![CoreId::new(5)]
        );
        // Cluster of 4: core 9 is at (1,1) -> block (0,0)-(1,1): cores 0,1,8,9.
        let members = mesh.cluster_members(CoreId::new(9), 4);
        assert_eq!(
            members,
            vec![
                CoreId::new(0),
                CoreId::new(1),
                CoreId::new(8),
                CoreId::new(9)
            ]
        );
        // All members of the same cluster agree on the member list.
        for m in &members {
            assert_eq!(mesh.cluster_members(*m, 4), members);
        }
        // Cluster of 16: 4x4 blocks.
        let members = mesh.cluster_members(CoreId::new(63), 16);
        assert_eq!(members.len(), 16);
        assert!(members.contains(&CoreId::new(36)));
        // Cluster of 64 is the whole chip.
        assert_eq!(mesh.cluster_members(CoreId::new(0), 64).len(), 64);
    }

    #[test]
    fn cluster_members_fallback_for_non_square() {
        let mesh = Mesh::new(8, 8);
        let members = mesh.cluster_members(CoreId::new(13), 8);
        assert_eq!(members.len(), 8);
        assert!(members.contains(&CoreId::new(13)));
    }

    #[test]
    fn cluster_slice_for_line_is_deterministic_and_within_cluster() {
        let mesh = Mesh::new(8, 8);
        let members = mesh.cluster_members(CoreId::new(20), 4);
        for line in 0..32u64 {
            let slice = mesh.cluster_slice_for_line(CoreId::new(20), 4, line);
            assert!(members.contains(&slice));
            // Any core in the cluster maps the line to the same slice.
            for m in &members {
                assert_eq!(mesh.cluster_slice_for_line(*m, 4, line), slice);
            }
        }
        // Lines spread across all cluster members.
        let distinct: std::collections::HashSet<_> = (0..16u64)
            .map(|l| mesh.cluster_slice_for_line(CoreId::new(20), 4, l))
            .collect();
        assert_eq!(distinct.len(), 4);
    }
}
