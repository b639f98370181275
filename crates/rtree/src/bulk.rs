//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building a 2-million-item tree by repeated insertion is the paper's
//! setup, but the benchmark harness rebuilds trees for many configurations;
//! STR packing gives the same logical content orders of magnitude faster.
//! Leaves are filled to a configurable factor so subsequent inserts do not
//! immediately split every node.

use crate::geom::Rect;
use crate::node::{Entry, Node, RTreeConfig};
use crate::store::{NodeStore, TreeMeta};
use crate::tree::RTree;

/// Bulk-loads `items` into an empty tree over `store` using STR packing,
/// filling nodes to about 80 % of the maximum fanout.
///
/// # Panics
///
/// Panics if `config` is invalid.
///
/// # Examples
///
/// ```
/// use catfish_rtree::{bulk_load, MemStore, Rect};
///
/// let items: Vec<(Rect, u64)> = (0..1000)
///     .map(|i| {
///         let x = (i % 32) as f64;
///         let y = (i / 32) as f64;
///         (Rect::new(x, y, x + 0.5, y + 0.5), i as u64)
///     })
///     .collect();
/// let tree = bulk_load(MemStore::new(), Default::default(), items);
/// assert_eq!(tree.len(), 1000);
/// tree.check_invariants().unwrap();
/// ```
pub fn bulk_load<S: NodeStore>(store: S, config: RTreeConfig, items: Vec<(Rect, u64)>) -> RTree<S> {
    let fill = (config.max_entries * 4 / 5)
        .max(config.min_entries * 2)
        .min(config.max_entries);
    bulk_load_with_fill(store, config, items, fill)
}

/// Bulk-loads with an explicit per-node fill count.
///
/// # Panics
///
/// Panics if `config` is invalid or `fill` is outside
/// `[2 * min_entries, max_entries]` (the lower bound guarantees that group
/// balancing can always satisfy the minimum fanout).
pub fn bulk_load_with_fill<S: NodeStore>(
    mut store: S,
    config: RTreeConfig,
    items: Vec<(Rect, u64)>,
    fill: usize,
) -> RTree<S> {
    config.validate();
    assert!(
        fill >= config.min_entries * 2 && fill <= config.max_entries,
        "fill {fill} outside [{}, {}]",
        config.min_entries * 2,
        config.max_entries
    );
    let n = items.len() as u64;
    if items.is_empty() {
        store.set_meta(TreeMeta::default());
        return RTree::open(store, config);
    }

    // Level 0: pack data entries into leaves.
    let mut current: Vec<Entry> = items
        .into_iter()
        .map(|(rect, data)| Entry::data(rect, data))
        .collect();
    let mut next: Vec<Entry> = Vec::new();
    let mut node = Node::new(0);
    let mut keys = Vec::new();
    let mut level = 0u32;
    loop {
        let ends = str_pack(&mut current, fill, config.min_entries, &mut keys);
        next.clear();
        node.level = level;
        let mut start = 0;
        for &end in &ends {
            let id = store.alloc();
            node.entries.clear();
            node.entries.extend_from_slice(&current[start..end]);
            store.write(id, &node);
            next.push(Entry::node(
                node.mbr().expect("packed groups are non-empty"),
                id,
            ));
            start = end;
        }
        if ends.len() == 1 {
            let root = next[0].child.node().expect("node entry");
            store.set_meta(TreeMeta {
                root: Some(root),
                height: level + 1,
                len: n,
                structure_version: 0,
            });
            return RTree::open(store, config);
        }
        std::mem::swap(&mut current, &mut next);
        level += 1;
    }
}

/// A space partition of a bulk-load dataset across cluster shards.
///
/// Produced by [`partition_by_x`]: the unit of scale-out is a contiguous
/// x-slab of the dataset (the same x-center ordering STR packing starts
/// from), so each shard's bulk-loaded tree covers a compact region and the
/// slab boundaries double as the cluster's routing cuts. The `cuts` are
/// **authoritative** for ownership through [`slab_of`], and
/// [`partition_by_x`] assigns items by that same rule, so routing a later
/// point operation by center always lands on the shard holding the item.
#[derive(Debug, Clone)]
pub struct SpacePartition {
    /// Per-shard bulk-load items (some slabs may be empty when the data is
    /// narrower than the shard count).
    pub slabs: Vec<Vec<(Rect, u64)>>,
    /// Ascending x cuts between adjacent slabs (`shards - 1` entries).
    pub cuts: Vec<f64>,
    /// Per-shard boundary MBR of the loaded items (`None` for an empty
    /// slab) — what scatter-gather clients prune window queries against.
    pub bounds: Vec<Option<Rect>>,
}

/// The x-slab ownership rule: the slab, of those separated by the
/// ascending `cuts`, that owns an item whose rectangle center-x is `x`. A
/// value equal to a cut belongs to the slab right of it.
pub fn slab_of(cuts: &[f64], x: f64) -> usize {
    cuts.partition_point(|c| *c <= x)
}

/// Splits `items` into `shards` contiguous x-slabs of near-equal item
/// count, returning each slab with its boundary MBR and the cut positions.
///
/// Cuts fall between distinct center-x values; runs of items sharing one
/// center-x are never split across a cut, so [`slab_of`] is consistent
/// with the assignment (at the cost of slightly uneven slab
/// sizes on heavily duplicated coordinates). With no items the unit square
/// is cut uniformly so later inserts still spread.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn partition_by_x(items: Vec<(Rect, u64)>, shards: usize) -> SpacePartition {
    assert!(shards > 0, "a cluster needs at least one shard");
    let cuts: Vec<f64> = if items.is_empty() {
        (1..shards).map(|i| i as f64 / shards as f64).collect()
    } else if shards == 1 {
        Vec::new()
    } else {
        let n = items.len();
        // The order statistics the cuts read, found by selection on
        // `(key, index)` pairs: unique, so each lands on exactly the item a
        // stable sort of the centers would put there.
        let mut keys: Vec<(u64, usize)> = items
            .iter()
            .enumerate()
            .map(|(i, (r, _))| (center_key(r.center().0), i))
            .collect();
        let mut ranks: Vec<usize> = (1..shards)
            .flat_map(|i| {
                let at = i * n / shards;
                [at.saturating_sub(1), at.min(n - 1)]
            })
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        let mut lo = 0;
        for &rank in &ranks {
            // Every key before `lo` is below every key from `lo` on, so a
            // selection within `keys[lo..]` is a global one, and it leaves
            // the ranks already placed before `lo` untouched.
            keys[lo..].select_nth_unstable(rank - lo);
            lo = rank + 1;
        }
        let center = |rank: usize| items[keys[rank].1].0.center().0;
        (1..shards)
            .map(|i| {
                let at = i * n / shards;
                let right = center(at.min(n - 1));
                let left = center(at.saturating_sub(1));
                if left < right {
                    // Midpoint between the slabs; `slab_of` sends the
                    // boundary value itself to the right shard.
                    (left + right) / 2.0
                } else {
                    // A tie run straddles the balanced index: cut at the
                    // value so the whole run lands right of the cut.
                    right
                }
            })
            .collect()
    };
    let mut slabs: Vec<Vec<(Rect, u64)>> = (0..shards).map(|_| Vec::new()).collect();
    let mut bounds: Vec<Option<Rect>> = vec![None; shards];
    for (rect, data) in items {
        let s = slab_of(&cuts, rect.center().0);
        bounds[s] = Some(match bounds[s] {
            Some(b) => b.union(&rect),
            None => rect,
        });
        slabs[s].push((rect, data));
    }
    SpacePartition {
        slabs,
        cuts,
        bounds,
    }
}

/// Sorts `entries` into Sort-Tile-Recursive order in place and returns the
/// end index of each consecutive group of about `fill`; every group has at
/// least `min_entries` entries (except when the whole input is smaller than
/// that, which can only happen for the root). `keys` is sort scratch.
fn str_pack(
    entries: &mut [Entry],
    fill: usize,
    min_entries: usize,
    keys: &mut Vec<(u64, usize)>,
) -> Vec<usize> {
    let n = entries.len();
    if n <= fill {
        return vec![n];
    }
    let pages = n.div_ceil(fill);
    let slices = (pages as f64).sqrt().ceil() as usize;
    let per_slice = n.div_ceil(slices);

    sort_by_center(entries, 0, keys);
    let mut ends = Vec::with_capacity(pages);
    for (s, slice) in entries.chunks_mut(per_slice).enumerate() {
        sort_by_center(slice, 1, keys);
        let mut start = 0;
        while start < slice.len() {
            let left = slice.len() - start;
            let mut take = fill.min(left);
            let remainder = left - take;
            if remainder > 0 && remainder < min_entries {
                // Shrink this group so the slice's final group still
                // satisfies the minimum fanout.
                take = left - min_entries;
            }
            start += take;
            ends.push(s * per_slice + start);
        }
    }
    balance_tail(&mut ends, fill, min_entries);
    ends
}

/// If the last group (which may come from an undersized final slice) is
/// below the minimum fanout, merge it with its predecessor, re-splitting if
/// the merge would exceed the fill target.
fn balance_tail(ends: &mut Vec<usize>, fill: usize, min_entries: usize) {
    let k = ends.len();
    if k < 2 || ends[k - 1] - ends[k - 2] >= min_entries {
        return;
    }
    let start = if k > 2 { ends[k - 3] } else { 0 };
    let end = ends[k - 1];
    ends.truncate(k - 2);
    let merged = end - start;
    if merged > fill {
        let half = merged / 2;
        debug_assert!(half >= min_entries && merged - half >= min_entries);
        ends.push(start + half);
    }
    ends.push(end);
}

/// Stable sort of `entries` by rectangle center on `axis`: the `(key,
/// index)` pairs are unique, so an unstable sort of them breaks ties by
/// original position exactly as a stable comparison sort would.
fn sort_by_center(entries: &mut [Entry], axis: usize, keys: &mut Vec<(u64, usize)>) {
    if entries.len() < 2 {
        return;
    }
    keys.clear();
    keys.extend(
        entries
            .iter()
            .enumerate()
            .map(|(i, e)| (center_key(center_axis(&e.mbr, axis)), i)),
    );
    keys.sort_unstable();
    let sorted: Vec<Entry> = keys.iter().map(|&(_, i)| entries[i]).collect();
    entries.copy_from_slice(&sorted);
}

/// An order-preserving `u64` image of a center coordinate: `a < b` exactly
/// when `center_key(a) < center_key(b)`, and `-0.0` and `+0.0` share a key
/// as they compare equal.
///
/// # Panics
///
/// Panics on NaN, which has no place in the order.
fn center_key(c: f64) -> u64 {
    assert!(!c.is_nan(), "finite coordinates required, got a NaN center");
    let bits = (c + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

fn center_axis(r: &Rect, axis: usize) -> f64 {
    let (cx, cy) = r.center();
    if axis == 0 {
        cx
    } else {
        cy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use proptest::prelude::*;

    /// The comparison-sort STR packing [`str_pack`] replaced, kept verbatim
    /// as the reference its groups must equal.
    fn oracle_str_pack(
        mut entries: Vec<Entry>,
        fill: usize,
        min_entries: usize,
    ) -> Vec<Vec<Entry>> {
        let n = entries.len();
        if n <= fill {
            return vec![entries];
        }
        let pages = n.div_ceil(fill);
        let slices = (pages as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(slices);

        oracle_sort_by_center(&mut entries, 0);
        let mut groups = Vec::with_capacity(pages);
        let mut rest = entries;
        while !rest.is_empty() {
            let take = per_slice.min(rest.len());
            let mut slice: Vec<Entry> = rest.drain(..take).collect();
            oracle_sort_by_center(&mut slice, 1);
            while !slice.is_empty() {
                let mut take = fill.min(slice.len());
                let remainder = slice.len() - take;
                if remainder > 0 && remainder < min_entries {
                    take = slice.len() - min_entries;
                }
                groups.push(slice.drain(..take).collect::<Vec<_>>());
            }
        }
        oracle_balance_tail(&mut groups, fill, min_entries);
        groups
    }

    fn oracle_balance_tail(groups: &mut Vec<Vec<Entry>>, fill: usize, min_entries: usize) {
        if groups.len() < 2 || groups[groups.len() - 1].len() >= min_entries {
            return;
        }
        let tail = groups.pop().expect("len checked");
        let mut merged = groups.pop().expect("len checked");
        merged.extend(tail);
        if merged.len() <= fill {
            groups.push(merged);
        } else {
            let half = merged.len() / 2;
            let second = merged.split_off(half);
            groups.push(merged);
            groups.push(second);
        }
    }

    fn oracle_sort_by_center(entries: &mut [Entry], axis: usize) {
        entries.sort_by(|a, b| {
            let ka = center_axis(&a.mbr, axis);
            let kb = center_axis(&b.mbr, axis);
            ka.partial_cmp(&kb).expect("finite coordinates")
        });
    }

    /// The sorting [`partition_by_x`] replaced, kept verbatim as the
    /// reference its cuts and slabs must equal.
    fn oracle_partition_by_x(items: Vec<(Rect, u64)>, shards: usize) -> SpacePartition {
        assert!(shards > 0, "a cluster needs at least one shard");
        let cuts: Vec<f64> = if items.is_empty() {
            (1..shards).map(|i| i as f64 / shards as f64).collect()
        } else {
            let mut centers: Vec<f64> = items.iter().map(|(r, _)| r.center().0).collect();
            centers.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
            (1..shards)
                .map(|i| {
                    let at = i * centers.len() / shards;
                    let right = centers[at.min(centers.len() - 1)];
                    let left = centers[at.saturating_sub(1)];
                    if left < right {
                        (left + right) / 2.0
                    } else {
                        right
                    }
                })
                .collect()
        };
        let mut slabs: Vec<Vec<(Rect, u64)>> = (0..shards).map(|_| Vec::new()).collect();
        let mut bounds: Vec<Option<Rect>> = vec![None; shards];
        for (rect, data) in items {
            let s = slab_of(&cuts, rect.center().0);
            bounds[s] = Some(match bounds[s] {
                Some(b) => b.union(&rect),
                None => rect,
            });
            slabs[s].push((rect, data));
        }
        SpacePartition {
            slabs,
            cuts,
            bounds,
        }
    }

    /// Items whose centers come from a handful of values, `-0.0` and
    /// `+0.0` among them, so long tie runs straddle every slice, group and
    /// cut boundary.
    fn tie_heavy_items(max: usize) -> impl Strategy<Value = Vec<(Rect, u64)>> {
        const CENTERS: [f64; 7] = [-1.0, -0.0, 0.0, 0.0, 0.5, 0.5, 2.0];
        // A zero half-width keeps a `-0.0` center (`-0.0 + 0.0` is `+0.0`).
        fn span(c: f64, half: usize) -> (f64, f64) {
            if half == 0 {
                (c, c)
            } else {
                (c - 0.25 * half as f64, c + 0.25 * half as f64)
            }
        }
        prop::collection::vec((0usize..7, 0usize..7, 0usize..3, 0usize..3), 1..max).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (cx, cy, hx, hy))| {
                    let (x0, x1) = span(CENTERS[cx], hx);
                    let (y0, y1) = span(CENTERS[cy], hy);
                    (Rect::new(x0, y0, x1, y1), i as u64)
                })
                .collect()
        })
    }

    fn entries_of(items: &[(Rect, u64)]) -> Vec<Entry> {
        items.iter().map(|&(r, d)| Entry::data(r, d)).collect()
    }

    fn bits(rect: &Rect) -> [u64; 4] {
        [rect.min_x(), rect.min_y(), rect.max_x(), rect.max_y()].map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Keyed STR packing forms exactly the oracle's groups, entry for
        /// entry and bit for bit, at small fanouts and at fanout 88.
        #[test]
        fn str_pack_matches_comparison_sort_oracle(
            items in tie_heavy_items(600),
            fanout in 0usize..4,
        ) {
            let (fill, min_entries) = [(4, 2), (5, 2), (10, 4), (70, 35)][fanout];
            let mut entries = entries_of(&items);
            let ends = str_pack(&mut entries, fill, min_entries, &mut Vec::new());
            let mut start = 0;
            let groups: Vec<Vec<Entry>> = ends
                .iter()
                .map(|&end| {
                    let g = entries[start..end].to_vec();
                    start = end;
                    g
                })
                .collect();
            prop_assert_eq!(start, entries.len());
            let expect = oracle_str_pack(entries_of(&items), fill, min_entries);
            prop_assert_eq!(groups.len(), expect.len());
            for (g, e) in groups.iter().zip(&expect) {
                prop_assert_eq!(g.len(), e.len());
                for (a, b) in g.iter().zip(e) {
                    prop_assert_eq!(bits(&a.mbr), bits(&b.mbr));
                    prop_assert_eq!(a.child, b.child);
                }
            }
        }

        /// Selected cuts equal the sorted oracle's bit for bit, and every
        /// item lands in the same slab, for 1 to 8 shards.
        #[test]
        fn partition_matches_sorting_oracle(
            items in tie_heavy_items(300),
            shards in 1usize..9,
        ) {
            let got = partition_by_x(items.clone(), shards);
            let expect = oracle_partition_by_x(items, shards);
            let cut_bits = |p: &SpacePartition| p.cuts.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(cut_bits(&got), cut_bits(&expect));
            prop_assert_eq!(got.slabs, expect.slabs);
            prop_assert_eq!(got.bounds, expect.bounds);
        }
    }

    #[test]
    fn center_keys_follow_the_float_order() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1e300,
            f64::INFINITY,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    center_key(a).cmp(&center_key(b)),
                    a.partial_cmp(&b).expect("no NaN"),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// `Rect::new` admits only finite coordinates, so a center can
    /// overflow to infinity but never be NaN; should one arise, the key
    /// panics as the comparison sort's `partial_cmp` did.
    #[test]
    #[should_panic(expected = "finite coordinates")]
    fn nan_center_panics() {
        let _ = center_key(f64::NAN);
    }

    fn items(n: u64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.754877) % 100.0;
                let y = (i as f64 * 0.569840) % 100.0;
                (Rect::new(x, y, x + 0.3, y + 0.3), i)
            })
            .collect()
    }

    #[test]
    fn empty_bulk_load() {
        let tree = bulk_load(MemStore::new(), RTreeConfig::default(), Vec::new());
        assert!(tree.is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn single_item() {
        let tree = bulk_load(MemStore::new(), RTreeConfig::default(), items(1));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_across_sizes() {
        for n in [2u64, 10, 16, 17, 100, 1000, 5000] {
            let tree = bulk_load(MemStore::new(), RTreeConfig::default(), items(n));
            assert_eq!(tree.len(), n, "size {n}");
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("size {n}: {e}"));
        }
    }

    #[test]
    fn bulk_load_matches_incremental_search_results() {
        let data = items(2000);
        let bulk = bulk_load(MemStore::new(), RTreeConfig::default(), data.clone());
        let mut incr = RTree::new(MemStore::new(), RTreeConfig::default());
        for (r, d) in &data {
            incr.insert(*r, *d);
        }
        for q in [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(40.0, 40.0, 60.0, 60.0),
            Rect::new(99.0, 0.0, 100.0, 100.0),
        ] {
            let mut a = bulk.search(&q);
            let mut b = incr.search(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn inserts_after_bulk_load_work() {
        let mut tree = bulk_load(MemStore::new(), RTreeConfig::default(), items(500));
        for i in 500..600u64 {
            tree.insert(Rect::new(0.5, 0.5, 0.6, 0.6), i);
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 600);
    }

    #[test]
    fn bulk_load_is_much_shallower_than_worst_case() {
        let tree = bulk_load(MemStore::new(), RTreeConfig::default(), items(10_000));
        // fill ~12 per node: height around ceil(log12(10000)) + 1 = 5.
        assert!(tree.height() <= 5, "height {}", tree.height());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_fill_rejected() {
        let _ = bulk_load_with_fill(MemStore::new(), RTreeConfig::default(), items(10), 3);
    }

    #[test]
    fn partition_covers_all_items_and_routes_consistently() {
        let data = items(5_000);
        let part = partition_by_x(data.clone(), 4);
        assert_eq!(part.slabs.len(), 4);
        assert_eq!(part.cuts.len(), 3);
        assert!(part.cuts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(part.slabs.iter().map(Vec::len).sum::<usize>(), data.len());
        for (s, slab) in part.slabs.iter().enumerate() {
            let bound = part.bounds[s].expect("5000 items fill every slab");
            for (rect, _) in slab {
                // Assignment agrees with center routing, and the boundary
                // MBR covers every item entirely.
                assert_eq!(slab_of(&part.cuts, rect.center().0), s);
                assert_eq!(bound.union(rect), bound);
            }
        }
        // Near-equal slab sizes on distinct coordinates.
        let (min, max) = part.slabs.iter().fold((usize::MAX, 0), |(lo, hi), s| {
            (lo.min(s.len()), hi.max(s.len()))
        });
        assert!(max - min <= 2, "slab sizes {min}..{max}");
    }

    #[test]
    fn partition_never_splits_duplicate_centers() {
        // All items share one center-x: routing must keep them together.
        let data: Vec<(Rect, u64)> = (0..100)
            .map(|i| (Rect::new(0.4, i as f64, 0.6, i as f64 + 0.5), i))
            .collect();
        let part = partition_by_x(data, 4);
        let populated: Vec<usize> = (0..4).filter(|&s| !part.slabs[s].is_empty()).collect();
        assert_eq!(populated.len(), 1);
        assert_eq!(slab_of(&part.cuts, 0.5), populated[0]);
    }

    #[test]
    fn empty_partition_cuts_the_unit_square() {
        let part = partition_by_x(Vec::new(), 4);
        assert_eq!(part.cuts, vec![0.25, 0.5, 0.75]);
        assert!(part.bounds.iter().all(Option::is_none));
        assert_eq!(slab_of(&part.cuts, 0.1), 0);
        assert_eq!(slab_of(&part.cuts, 0.6), 2);
        assert_eq!(slab_of(&part.cuts, 0.9), 3);
    }

    #[test]
    fn single_shard_partition_is_the_identity() {
        let data = items(50);
        let part = partition_by_x(data.clone(), 1);
        assert!(part.cuts.is_empty());
        assert_eq!(part.slabs[0], data);
    }
}
