//! Node deployments: geometric placements of sensor nodes around a base
//! station.
//!
//! The case study describes "1600 nodes uniformly distributed in a circular
//! area around a base-station". [`Deployment::uniform_disc`] realizes that
//! geometry; combined with a distance-based
//! [`PathLossModel`] it yields a per-node
//! path-loss population, and [`round_robin_partition`] splits the
//! population over the 16 channels as the paper does (100 nodes/channel).

use wsn_units::Meters;

use wsn_phy::noise::UniformSource;

use crate::pathloss::PathLossModel;
use wsn_units::Db;

/// A point in the deployment plane, in meters, with the base station at the
/// origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// East coordinate.
    pub x: f64,
    /// North coordinate.
    pub y: f64,
}

impl Position {
    /// Distance from the base station at the origin.
    pub fn range(&self) -> Meters {
        Meters::new((self.x * self.x + self.y * self.y).sqrt())
    }
}

/// A set of node positions around a central base station.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    positions: Vec<Position>,
}

impl Deployment {
    /// Places `n` nodes uniformly (by area) in a disc of radius `radius`.
    ///
    /// Uses inverse-CDF sampling (`r = R·√u`) so density is uniform per
    /// unit area, as in the paper's scenario.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive.
    pub fn uniform_disc<U: UniformSource>(n: usize, radius: Meters, rng: &mut U) -> Self {
        assert!(radius.meters() > 0.0, "deployment radius must be positive");
        let positions = (0..n)
            .map(|_| {
                let r = radius.meters() * rng.next_f64().sqrt();
                let theta = core::f64::consts::TAU * rng.next_f64();
                Position {
                    x: r * theta.cos(),
                    y: r * theta.sin(),
                }
            })
            .collect();
        Deployment { positions }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the deployment has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Distances of every node from the base station.
    pub fn ranges(&self) -> Vec<Meters> {
        self.positions.iter().map(Position::range).collect()
    }

    /// Per-node path losses under a distance-based model.
    pub fn path_losses<M: PathLossModel>(&self, model: &M) -> Vec<Db> {
        self.positions
            .iter()
            .map(|p| model.path_loss(p.range()))
            .collect()
    }

    /// Splits node indices into `channels` concentric distance bands: nodes
    /// are sorted by range from the base station and the nearest block goes
    /// to channel 0, the farthest to channel `channels − 1`. This is the
    /// *ring-stratified* allocation — every channel sees a narrow path-loss
    /// band instead of the full population, which concentrates the weak
    /// links (and their retries) on the outer channels.
    ///
    /// Ties are broken by node index, so the partition is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn ring_partition(&self, channels: usize) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.positions.len()).collect();
        order.sort_by(|&a, &b| {
            self.positions[a]
                .range()
                .meters()
                .total_cmp(&self.positions[b].range().meters())
                .then(a.cmp(&b))
        });
        block_partition(order.into_iter(), channels)
    }

    /// Places `per_ring` nodes on each of the given concentric `radii`
    /// (uniform random angles), emitting nodes ring-major: ring 0's nodes
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `radii` is empty or any radius is not strictly positive.
    pub fn rings<U: UniformSource>(per_ring: usize, radii: &[Meters], rng: &mut U) -> Self {
        assert!(!radii.is_empty(), "at least one ring required");
        assert!(
            radii.iter().all(|r| r.meters() > 0.0),
            "ring radii must be positive"
        );
        let mut positions = Vec::with_capacity(per_ring * radii.len());
        for &radius in radii {
            for _ in 0..per_ring {
                let theta = core::f64::consts::TAU * rng.next_f64();
                positions.push(Position {
                    x: radius.meters() * theta.cos(),
                    y: radius.meters() * theta.sin(),
                });
            }
        }
        Deployment { positions }
    }

    /// Places `clusters × per_cluster` nodes in compact clusters: cluster
    /// centers are spread evenly around a circle of radius
    /// `field_radius − cluster_radius`, and each cluster's nodes are
    /// uniform (by area) in a disc of `cluster_radius` around its center.
    /// Nodes are emitted cluster-major, so a [`block_partition`] of the
    /// index order maps one cluster per channel.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < cluster_radius < field_radius` and
    /// `clusters > 0`.
    pub fn clustered<U: UniformSource>(
        clusters: usize,
        per_cluster: usize,
        field_radius: Meters,
        cluster_radius: Meters,
        rng: &mut U,
    ) -> Self {
        assert!(clusters > 0, "at least one cluster required");
        assert!(
            cluster_radius.meters() > 0.0 && cluster_radius < field_radius,
            "cluster radius must be in (0, field radius)"
        );
        let ring = field_radius.meters() - cluster_radius.meters();
        let mut positions = Vec::with_capacity(clusters * per_cluster);
        for c in 0..clusters {
            let phi = core::f64::consts::TAU * c as f64 / clusters as f64;
            let (cx, cy) = (ring * phi.cos(), ring * phi.sin());
            for _ in 0..per_cluster {
                let r = cluster_radius.meters() * rng.next_f64().sqrt();
                let theta = core::f64::consts::TAU * rng.next_f64();
                positions.push(Position {
                    x: cx + r * theta.cos(),
                    y: cy + r * theta.sin(),
                });
            }
        }
        Deployment { positions }
    }
}

/// Splits nodes `0..n` round-robin over `channels` channels — the paper's
/// 1600-node / 16-channel partition yields 100 nodes per channel.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn round_robin_partition(n: usize, channels: usize) -> Vec<Vec<usize>> {
    assert!(channels > 0, "at least one channel required");
    let mut parts = vec![Vec::new(); channels];
    for i in 0..n {
        parts[i % channels].push(i);
    }
    parts
}

/// Splits the node indices of `order` into `channels` consecutive blocks,
/// balanced: the first `n % channels` blocks take one node more than the
/// rest. Over the index order `0..n` this pairs with group-major
/// deployments (rings, clusters); over the nodes sorted by range it is
/// [`Deployment::ring_partition`].
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn block_partition(
    mut order: impl ExactSizeIterator<Item = usize>,
    channels: usize,
) -> Vec<Vec<usize>> {
    assert!(channels > 0, "at least one channel required");
    let n = order.len();
    let (base, extra) = (n / channels, n % channels);
    (0..channels)
        .map(|c| order.by_ref().take(base + usize::from(c < extra)).collect())
        .collect()
}

/// Groups node indices by an explicit node→channel assignment: entry `c` of
/// the result lists the nodes assigned to channel `c`, in node-index order.
///
/// This is the inverse view of the partitions above — where
/// [`round_robin_partition`] *produces* an allocation,
/// `assignment_partition` *consumes* one (e.g. an adaptive re-allocation
/// computed from observed per-channel failure rates) and lowers it back to
/// the per-channel index lists the simulator compiles from.
///
/// # Panics
///
/// Panics if `channels == 0` or any assignment entry is `≥ channels`.
///
/// # Examples
///
/// ```
/// use wsn_channel::assignment_partition;
///
/// let parts = assignment_partition(&[0, 1, 0, 2, 1], 3);
/// assert_eq!(parts, vec![vec![0, 2], vec![1, 4], vec![3]]);
/// ```
pub fn assignment_partition(assignment: &[usize], channels: usize) -> Vec<Vec<usize>> {
    assert!(channels > 0, "at least one channel required");
    let mut parts = vec![Vec::new(); channels];
    for (node, &channel) in assignment.iter().enumerate() {
        assert!(
            channel < channels,
            "node {node} assigned to channel {channel} of {channels}"
        );
        parts[channel].push(node);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathloss::LogDistance;
    use wsn_phy::noise::SplitMix64;

    #[test]
    fn all_nodes_inside_disc() {
        let mut rng = SplitMix64::new(1);
        let d = Deployment::uniform_disc(500, Meters::new(50.0), &mut rng);
        assert_eq!(d.len(), 500);
        assert!(!d.is_empty());
        for p in &d.positions {
            assert!(p.range().meters() <= 50.0 + 1e-9);
        }
    }

    #[test]
    fn density_is_uniform_by_area() {
        // In a uniform-area disc, the inner half-radius circle holds 1/4 of
        // the nodes.
        let mut rng = SplitMix64::new(2);
        let d = Deployment::uniform_disc(20_000, Meters::new(10.0), &mut rng);
        let inner = d.ranges().iter().filter(|r| r.meters() <= 5.0).count() as f64;
        let frac = inner / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "inner fraction {frac}");
    }

    #[test]
    fn paper_partition_is_100_per_channel() {
        let mut rng = SplitMix64::new(3);
        let d = Deployment::uniform_disc(1600, Meters::new(30.0), &mut rng);
        let parts = round_robin_partition(d.len(), 16);
        assert_eq!(parts.len(), 16);
        assert!(parts.iter().all(|p| p.len() == 100));
        // Every node appears exactly once.
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 1600);
    }

    #[test]
    fn path_losses_increase_with_range() {
        let mut rng = SplitMix64::new(4);
        let d = Deployment::uniform_disc(100, Meters::new(40.0), &mut rng);
        let model = LogDistance::indoor_2450();
        let losses = d.path_losses(&model);
        let ranges = d.ranges();
        // The farthest node has at least the loss of the nearest node.
        let (near_idx, _) = ranges
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.meters().total_cmp(&b.1.meters()))
            .unwrap();
        let (far_idx, _) = ranges
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.meters().total_cmp(&b.1.meters()))
            .unwrap();
        assert!(losses[far_idx] >= losses[near_idx]);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = Deployment::uniform_disc(64, Meters::new(10.0), &mut SplitMix64::new(9));
        let b = Deployment::uniform_disc(64, Meters::new(10.0), &mut SplitMix64::new(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        let _ = Deployment::uniform_disc(1, Meters::new(0.0), &mut SplitMix64::new(0));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = round_robin_partition(4, 0);
    }

    #[test]
    fn contiguous_partition_covers_in_index_order() {
        let parts = block_partition(0..10, 3);
        assert_eq!(parts.len(), 3);
        // 10 = 4 + 3 + 3, indices in order.
        assert_eq!(parts[0], vec![0, 1, 2, 3]);
        assert_eq!(parts[1], vec![4, 5, 6]);
        assert_eq!(parts[2], vec![7, 8, 9]);
    }

    #[test]
    fn ring_partition_stratifies_by_range() {
        let mut rng = SplitMix64::new(7);
        let d = Deployment::uniform_disc(400, Meters::new(30.0), &mut rng);
        let parts = d.ring_partition(4);
        assert!(parts.iter().all(|p| p.len() == 100));
        let ranges = d.ranges();
        // Every node of band k is no farther than every node of band k+1.
        for k in 0..3 {
            let outer_of_k = parts[k]
                .iter()
                .map(|&i| ranges[i].meters())
                .fold(0.0, f64::max);
            let inner_of_next = parts[k + 1]
                .iter()
                .map(|&i| ranges[i].meters())
                .fold(f64::INFINITY, f64::min);
            assert!(outer_of_k <= inner_of_next + 1e-12, "band {k} overlaps");
        }
        // All indices appear exactly once.
        let mut all: Vec<usize> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn rings_place_nodes_at_exact_radii() {
        let mut rng = SplitMix64::new(8);
        let radii = [Meters::new(5.0), Meters::new(15.0), Meters::new(25.0)];
        let d = Deployment::rings(20, &radii, &mut rng);
        assert_eq!(d.len(), 60);
        for (i, p) in d.positions.iter().enumerate() {
            let want = radii[i / 20].meters();
            assert!((p.range().meters() - want).abs() < 1e-9, "node {i}");
        }
        // Ring-major emission: contiguous partition isolates each ring.
        let parts = block_partition(0..d.len(), 3);
        for (k, part) in parts.iter().enumerate() {
            for &i in part {
                assert!((d.positions[i].range().meters() - radii[k].meters()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn clusters_are_compact_and_cluster_major() {
        let mut rng = SplitMix64::new(9);
        let d = Deployment::clustered(4, 25, Meters::new(40.0), Meters::new(5.0), &mut rng);
        assert_eq!(d.len(), 100);
        let parts = block_partition(0..d.len(), 4);
        for part in &parts {
            assert_eq!(part.len(), 25);
            // All nodes of a cluster fit in a 2×cluster_radius-diameter disc.
            let xs: Vec<f64> = part.iter().map(|&i| d.positions[i].x).collect();
            let ys: Vec<f64> = part.iter().map(|&i| d.positions[i].y).collect();
            let (cx, cy) = (xs.iter().sum::<f64>() / 25.0, ys.iter().sum::<f64>() / 25.0);
            for (&x, &y) in xs.iter().zip(&ys) {
                let dist = ((x - cx).powi(2) + (y - cy).powi(2)).sqrt();
                assert!(dist <= 10.0, "node {dist} m from its cluster centroid");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cluster radius must be in")]
    fn oversized_cluster_radius_rejected() {
        let _ = Deployment::clustered(
            2,
            2,
            Meters::new(10.0),
            Meters::new(10.0),
            &mut SplitMix64::new(0),
        );
    }
}
