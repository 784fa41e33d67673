//! Boosted trees in bin space: histogram-based (quantile-binned) split
//! finding, and batch scoring of shallow ensembles over the same bins.
//!
//! [`BinnedDataset`] quantizes every feature column once per `fit` into at
//! most `max_bins` ordered bins (one bin per distinct value when the column
//! has few, quantile cuts otherwise). Trees are then grown from per-bin
//! gradient/hessian histograms instead of per-node sorts, so one tree level
//! costs O(rows + bins·features) rather than O(rows·log rows·features), and
//! the binning itself is paid once per model fit instead of once per node.
//!
//! Growth runs on a `TreeWorkspace` — one row buffer partitioned in
//! place and one histogram arena — that a boosted fit reuses for all its
//! rounds, so growing a tree allocates nothing but the tree. After a
//! split only the smaller child's histograms are accumulated from rows;
//! the sibling's are derived as `parent − child` (**histogram
//! subtraction**), and neither is built for children that cannot split
//! again. Every sum runs serially in the caller's row order, so a fit is
//! bit-identical whatever the workspace held before.
//!
//! With at least as many bins as distinct feature values the candidate
//! split set matches exact greedy enumeration
//! ([`RegressionTree::fit_gradients_exact`]); with fewer bins splits are
//! quantile-approximate — the same trade XGBoost's `hist` method makes
//! (Chen & Guestrin, KDD '16).
//!
//! A split threshold is always one of its feature's cuts, so a fitted
//! ensemble can also be *scored* in bin space: `BinKernel` quantizes a
//! batch once against the fit's cuts and evaluates shallow trees as byte
//! compares over column slices, bit-identical to walking them.

use crate::dataset::Dataset;
use crate::tree::{Node, RegressionTree, TreeParams};

/// Default bin budget per feature. Auto-tuning datasets (tens to hundreds
/// of rows) have fewer distinct values than this, so the default keeps
/// training exactly equivalent to the greedy reference while large
/// benchmark datasets fall back to quantile cuts.
pub const DEFAULT_MAX_BINS: usize = 256;

/// One feature column quantized to ordered bin codes.
struct FeatureBins {
    codes: Vec<u16>,
    /// Raw-value thresholds between adjacent bins: a row belongs to a bin
    /// `<= b` iff its value is `<= cuts[b]`. Length `n_bins - 1`.
    cuts: Vec<f64>,
}

/// Quantizes one column. NaNs go to bin 0 (mirroring the NaN-routes-left
/// convention of prediction) and never produce cut points.
fn bin_column(vals: &[f64], max_bins: usize) -> FeatureBins {
    let max_bins = max_bins.clamp(2, u16::MAX as usize);
    let mut sorted: Vec<f64> = vals.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    sorted.dedup();
    let d = sorted.len();
    if d <= 1 {
        return FeatureBins {
            codes: vec![0; vals.len()],
            cuts: Vec::new(),
        };
    }

    // Boundary ranks into the distinct-value list: bin `b` covers ranks
    // `bounds[b-1]..bounds[b]`. One bin per distinct value when they fit,
    // evenly spaced quantile cuts otherwise (strictly increasing because
    // d >= max_bins there).
    let bounds: Vec<usize> = if d <= max_bins {
        (1..d).collect()
    } else {
        (1..max_bins).map(|k| k * d / max_bins).collect()
    };
    let cuts: Vec<f64> = bounds
        .iter()
        .map(|&i| 0.5 * (sorted[i - 1] + sorted[i]))
        .collect();

    // code(rank) = number of boundaries at or below the rank.
    let mut code_of_rank = vec![0u16; d];
    let mut code = 0u16;
    let mut b = 0;
    for (r, slot) in code_of_rank.iter_mut().enumerate() {
        if b < bounds.len() && bounds[b] == r {
            code += 1;
            b += 1;
        }
        *slot = code;
    }
    let codes = vals
        .iter()
        .map(|&v| {
            if v.is_nan() {
                0
            } else {
                code_of_rank[sorted.partition_point(|&x| x < v)]
            }
        })
        .collect();
    FeatureBins { codes, cuts }
}

/// A dataset's feature matrix quantized once into column-major bin codes,
/// cached for the duration of a model fit and shared by every tree.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    n_features: usize,
    /// Column-major codes: `codes[f * n_rows + i]` is row `i`'s bin in
    /// feature `f`.
    codes: Vec<u16>,
    /// Per-feature inter-bin thresholds (see [`FeatureBins::cuts`]).
    cuts: Vec<Vec<f64>>,
}

impl BinnedDataset {
    /// Quantizes `data` with at most `max_bins` bins per feature.
    pub fn from_dataset(data: &Dataset, max_bins: usize) -> Self {
        let n = data.n_rows();
        let p = data.n_features();
        assert!(n < u32::MAX as usize, "row count exceeds u32 row indices");
        let mut codes = Vec::with_capacity(n * p);
        let mut cuts = Vec::with_capacity(p);
        let mut col = Vec::with_capacity(n);
        for f in 0..p {
            col.clear();
            col.extend((0..n).map(|i| data.value(i, f)));
            let fb = bin_column(&col, max_bins);
            codes.extend_from_slice(&fb.codes);
            cuts.push(fb.cuts);
        }
        Self {
            n_rows: n,
            n_features: p,
            codes,
            cuts,
        }
    }

    /// Number of rows quantized.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of bins of feature `f` (at least 1).
    pub fn n_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }

    /// All rows' bin codes for feature `f`.
    fn feature_codes(&self, f: usize) -> &[u16] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Per-bin first/second-order gradient statistics.
#[derive(Debug, Clone, Copy, Default)]
struct HistBin {
    g: f64,
    h: f64,
    n: u32,
}

/// The buffers one tree's growth needs, kept across trees so a boosted fit
/// allocates them once instead of per node:
///
/// * `rows` — the tree's row ids. A node owns a contiguous range and a
///   split partitions that range *stably* in place (left rows keep their
///   order at the front, right rows theirs behind them, via `spill`), so
///   every per-node sum runs over the rows in the order the caller gave.
/// * `hists` — a flat histogram arena of slots `2 * depth + side`. One slot
///   holds a node's histograms for all considered features back to back,
///   feature position `k` at `offsets[k]..offsets[k + 1]`. A node's two
///   children are grown one after the other and only ever write deeper
///   slots, so two slots per depth are enough for the whole recursion.
#[derive(Debug, Default)]
pub(crate) struct TreeWorkspace {
    rows: Vec<u32>,
    spill: Vec<u32>,
    hists: Vec<HistBin>,
    offsets: Vec<usize>,
}

impl TreeWorkspace {
    /// The row buffer, for the caller to fill with the next tree's rows.
    pub(crate) fn rows_mut(&mut self) -> &mut Vec<u32> {
        &mut self.rows
    }

    fn slot_len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Grows the arena to hold at least `slots` slots.
    fn ensure_slots(&mut self, slots: usize) {
        let len = slots * self.slot_len();
        if self.hists.len() < len {
            self.hists.resize(len, HistBin::default());
        }
    }

    fn slot(&self, slot: usize) -> &[HistBin] {
        let len = self.slot_len();
        &self.hists[slot * len..(slot + 1) * len]
    }
}

/// What a tree is fitted to: read-only for the whole growth.
#[derive(Clone, Copy)]
struct Target<'a> {
    binned: &'a BinnedDataset,
    grad: &'a [f64],
    hess: &'a [f64],
    features: &'a [usize],
}

impl Target<'_> {
    /// Accumulates one histogram per considered feature over `rows` into
    /// `slot`, each feature scanned serially in row order.
    fn accumulate(&self, offsets: &[usize], rows: &[u32], slot: &mut [HistBin]) {
        slot.fill(HistBin::default());
        for (pos, &f) in self.features.iter().enumerate() {
            let codes = self.binned.feature_codes(f);
            let hist = &mut slot[offsets[pos]..offsets[pos + 1]];
            for &i in rows {
                let i = i as usize;
                let b = &mut hist[codes[i] as usize];
                b.g += self.grad[i];
                b.h += self.hess[i];
                b.n += 1;
            }
        }
    }
}

struct HistSplit {
    feature: usize,
    bin: u16,
    threshold: f64,
    gain: f64,
}

struct HistGrower<'a> {
    target: Target<'a>,
    params: TreeParams,
    ws: &'a mut TreeWorkspace,
    nodes: Vec<Node>,
    split_gains: Vec<(usize, f64)>,
}

impl HistGrower<'_> {
    fn score(&self, g: f64, h: f64) -> f64 {
        g * g / (h + self.params.lambda)
    }

    /// Whether a node of `n` rows at `depth` searches for a split, and so
    /// needs its histograms.
    fn searches(&self, n: usize, depth: usize) -> bool {
        depth < self.params.max_depth && n >= 2
    }

    /// Scans the histograms in `slot` for the best boundary, mirroring the
    /// exact grower's candidate order (features in given order, thresholds
    /// ascending) and tie-breaking (strictly greater gain wins).
    fn best_split(&self, slot: usize, g: f64, h: f64, n: u32) -> Option<HistSplit> {
        let parent_score = self.score(g, h);
        let hists = self.ws.slot(slot);
        let mut best: Option<HistSplit> = None;
        for (pos, &f) in self.target.features.iter().enumerate() {
            let hist = &hists[self.ws.offsets[pos]..self.ws.offsets[pos + 1]];
            let cuts = &self.target.binned.cuts[f];
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut nl = 0u32;
            for (b, &cut) in cuts.iter().enumerate() {
                let bin = hist[b];
                gl += bin.g;
                hl += bin.h;
                nl += bin.n;
                if bin.n == 0 {
                    continue; // same partition as the previous boundary
                }
                let nr = n - nl;
                if nr == 0 {
                    break; // nothing remains on the right
                }
                if (nl as usize) < self.params.min_samples_leaf
                    || (nr as usize) < self.params.min_samples_leaf
                {
                    continue;
                }
                let gr = g - gl;
                let hr = h - hl;
                if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                    continue;
                }
                let gain = 0.5 * (self.score(gl, hl) + self.score(gr, hr) - parent_score)
                    - self.params.gamma;
                if gain > 0.0 && best.as_ref().is_none_or(|s| gain > s.gain) {
                    best = Some(HistSplit {
                        feature: f,
                        bin: b as u16,
                        threshold: cut,
                        gain,
                    });
                }
            }
        }
        best
    }

    /// Stably partitions `rows[lo..hi]` around the split: rows in bins
    /// `<= bin` first, the rest behind them, both in their original order.
    /// Returns where the right-hand rows start.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, bin: u16) -> usize {
        let codes = self.target.binned.feature_codes(feature);
        let TreeWorkspace { rows, spill, .. } = &mut *self.ws;
        spill.clear();
        let mut mid = lo;
        for k in lo..hi {
            let i = rows[k];
            if codes[i as usize] <= bin {
                rows[mid] = i;
                mid += 1;
            } else {
                spill.push(i);
            }
        }
        rows[mid..hi].copy_from_slice(spill);
        mid
    }

    /// Fills the histogram slots of the two children of the node in slot
    /// `parent` at `depth`, whose rows are `lo..mid` and `mid..hi`: the
    /// smaller child's are accumulated from its rows and the sibling's
    /// derived as `parent - child`. Skipped when neither child will search
    /// for a split (the smaller one never does unless the larger does).
    fn child_hists(&mut self, parent: usize, depth: usize, lo: usize, mid: usize, hi: usize) {
        let left_is_small = mid - lo <= hi - mid;
        let (small_rows, n_large) = if left_is_small {
            (lo..mid, hi - mid)
        } else {
            (mid..hi, mid - lo)
        };
        if !self.searches(n_large, depth + 1) {
            return;
        }
        let len = self.ws.slot_len();
        let children = 2 * (depth + 1) * len;
        self.ws.ensure_slots(2 * (depth + 1) + 2);
        let TreeWorkspace {
            rows,
            hists,
            offsets,
            ..
        } = &mut *self.ws;
        let (shallower, deeper) = hists.split_at_mut(children);
        let parent = &shallower[parent * len..(parent + 1) * len];
        let (left, right) = deeper[..2 * len].split_at_mut(len);
        let (small, large) = if left_is_small {
            (left, right)
        } else {
            (right, left)
        };
        self.target.accumulate(offsets, &rows[small_rows], small);
        for ((l, p), s) in large.iter_mut().zip(parent).zip(small.iter()) {
            *l = HistBin {
                g: p.g - s.g,
                h: p.h - s.h,
                n: p.n - s.n,
            };
        }
    }

    /// Grows the node over `rows[lo..hi]` whose histograms (if it searches
    /// for a split) are in `slot`; returns its node index.
    fn grow(&mut self, lo: usize, hi: usize, slot: usize, depth: usize) -> usize {
        let Target { grad, hess, .. } = self.target;
        let rows = &self.ws.rows[lo..hi];
        let g: f64 = rows.iter().map(|&i| grad[i as usize]).sum();
        let h: f64 = rows.iter().map(|&i| hess[i as usize]).sum();

        let split = if self.searches(hi - lo, depth) {
            self.best_split(slot, g, h, (hi - lo) as u32)
        } else {
            None
        };
        let Some(s) = split else {
            self.nodes.push(Node::Leaf {
                weight: -g / (h + self.params.lambda),
            });
            return self.nodes.len() - 1;
        };
        self.split_gains.push((s.feature, s.gain));
        let mid = self.partition(lo, hi, s.feature, s.bin);
        self.child_hists(slot, depth, lo, mid, hi);
        // Reserve this node's slot before growing children so child
        // indices are stable.
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 });
        let left = self.grow(lo, mid, 2 * (depth + 1), depth + 1);
        let right = self.grow(mid, hi, 2 * (depth + 1) + 1, depth + 1);
        self.nodes[me] = Node::Split {
            feature: s.feature,
            threshold: s.threshold,
            left,
            right,
        };
        me
    }
}

impl RegressionTree {
    /// Fits a tree to gradient statistics using histogram-based split
    /// finding over a pre-quantized dataset. [`crate::GradientBoosting`]
    /// and [`crate::RandomForest`] build the [`BinnedDataset`] once per
    /// `fit` and share it across trees.
    ///
    /// # Panics
    /// Panics if `grad`/`hess` are shorter than the binned dataset, or
    /// `rows` is empty.
    pub fn fit_binned(
        binned: &BinnedDataset,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> Self {
        let mut ws = TreeWorkspace::default();
        ws.rows.extend(rows.iter().map(|&i| i as u32));
        Self::grow_binned(&mut ws, binned, grad, hess, features, params)
    }

    /// [`RegressionTree::fit_binned`] over the rows the caller put in
    /// `ws` (see [`TreeWorkspace::rows_mut`]), growing on its buffers.
    /// The fitted tree does not depend on what `ws` was used for before.
    pub(crate) fn grow_binned(
        ws: &mut TreeWorkspace,
        binned: &BinnedDataset,
        grad: &[f64],
        hess: &[f64],
        features: &[usize],
        params: TreeParams,
    ) -> Self {
        assert!(!ws.rows.is_empty(), "cannot fit a tree to zero rows");
        assert!(grad.len() >= binned.n_rows() && hess.len() >= binned.n_rows());
        ws.offsets.clear();
        ws.offsets.push(0);
        let mut end = 0;
        for &f in features {
            end += binned.n_bins(f);
            ws.offsets.push(end);
        }
        let target = Target {
            binned,
            grad,
            hess,
            features,
        };
        let n = ws.rows.len();
        let mut grower = HistGrower {
            target,
            params,
            ws,
            nodes: Vec::new(),
            split_gains: Vec::new(),
        };
        if grower.searches(n, 0) {
            grower.ws.ensure_slots(1);
            let TreeWorkspace {
                rows,
                hists,
                offsets,
                ..
            } = &mut *grower.ws;
            target.accumulate(offsets, rows, &mut hists[..end]);
        }
        grower.grow(0, n, 0, 0);
        Self::from_parts(grower.nodes, grower.split_gains)
    }
}

/// Levels of splits in the complete tree the scoring kernel evaluates.
const KERNEL_DEPTH: usize = 3;
const KERNEL_TESTS: usize = (1 << KERNEL_DEPTH) - 1;
const KERNEL_LEAVES: usize = 1 << KERNEL_DEPTH;

/// Rows scored per pass over the trees: the block's leaf indices and
/// partial sums stay in L1 while every tree re-reads its code columns.
const KERNEL_BLOCK: usize = 256;

/// The bin no code exceeds: `code > NEVER` is false for every row, so a
/// padded test always descends left.
const NEVER: u8 = u8::MAX;

/// One tree of at most [`KERNEL_DEPTH`] levels, padded to a complete one.
/// Test `k` is `code[feature[k]] > bin[k]` (true descends right); its
/// children are tests `2k + 1` and `2k + 2`, and the leaves hang under
/// the last level left to right. A leaf the fitted tree has higher up
/// becomes [`NEVER`] tests all the way down, its weight at the left-most
/// leaf below it — the only one those tests can reach.
#[derive(Debug, Clone)]
struct CompleteTree {
    feature: [u32; KERNEL_TESTS],
    bin: [u8; KERNEL_TESTS],
    weight: [f64; KERNEL_LEAVES],
}

impl CompleteTree {
    /// `None` when `tree` is deeper than [`KERNEL_DEPTH`].
    fn new(tree: &RegressionTree, cuts: &[Vec<f64>]) -> Option<Self> {
        let mut out = Self {
            feature: [0; KERNEL_TESTS],
            bin: [NEVER; KERNEL_TESTS],
            weight: [0.0; KERNEL_LEAVES],
        };
        out.fill(tree.nodes(), 0, 0, cuts).then_some(out)
    }

    /// The leaf each row of a block lands in, given the block's code
    /// column for each test. Every test is evaluated as a 0/1 byte and the
    /// path through them taken by selection instead of branching
    /// (`x ^ ((x ^ y) & s)` is `y` where `s` is 1, else `x`): straight-line
    /// byte arithmetic the compiler turns into 16-lane compares. Kept out
    /// of line so it is compiled with `leaf` known not to overlap the
    /// columns, whatever it would have been inlined into.
    #[inline(never)]
    fn leaves(&self, cols: [&[u8]; KERNEL_TESTS], leaf: &mut [u8]) {
        let len = leaf.len();
        let [c0, c1, c2, c3, c4, c5, c6] = cols.map(|c| &c[..len]);
        let [b0, b1, b2, b3, b4, b5, b6] = self.bin;
        for i in 0..len {
            let t0 = (c0[i] > b0) as u8;
            let (t1, t2) = ((c1[i] > b1) as u8, (c2[i] > b2) as u8);
            let (t3, t4) = ((c3[i] > b3) as u8, (c4[i] > b4) as u8);
            let (t5, t6) = ((c5[i] > b5) as u8, (c6[i] > b6) as u8);
            let s1 = t1 ^ ((t1 ^ t2) & t0);
            let under_left = t3 ^ ((t3 ^ t4) & s1);
            let under_right = t5 ^ ((t5 ^ t6) & s1);
            let s2 = under_left ^ ((under_left ^ under_right) & t0);
            leaf[i] = t0 << 2 | s1 << 1 | s2;
        }
    }

    /// Copies the fitted node `src` and all below it into complete-tree
    /// position `k`; false when a split falls below the last level.
    fn fill(&mut self, nodes: &[Node], src: usize, k: usize, cuts: &[Vec<f64>]) -> bool {
        match nodes[src] {
            Node::Leaf { weight } => {
                let mut leaf = k;
                while leaf < KERNEL_TESTS {
                    leaf = 2 * leaf + 1;
                }
                self.weight[leaf - KERNEL_TESTS] = weight;
                true
            }
            Node::Split { .. } if k >= KERNEL_TESTS => false,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                // The grower copies thresholds out of the cuts, so the bin
                // is recovered exactly. (A NaN cut can only be a feature's
                // single one, between -inf and +inf; `v > NaN` and
                // `code > 0` are then both never true.)
                let bin = cuts[feature].partition_point(|&c| c < threshold);
                assert!(
                    cuts[feature].get(bin) == Some(&threshold) || threshold.is_nan(),
                    "split threshold {threshold} is not a cut of feature {feature}"
                );
                self.feature[k] = feature as u32;
                self.bin[k] = bin as u8;
                self.fill(nodes, left, 2 * k + 1, cuts) && self.fill(nodes, right, 2 * k + 2, cuts)
            }
        }
    }
}

/// A fitted shallow ensemble laid out for scoring in bin space.
///
/// `code(v)` is the number of the feature's cuts below `v`, so with the
/// cuts ascending `v > cuts[b]` holds exactly when `code(v) > b` — the
/// raw-value test of [`crate::FlatTrees`] on one byte per feature. NaN is
/// below no cut: code 0, left at every split, as in the walk.
#[derive(Debug, Clone)]
pub(crate) struct BinKernel {
    /// Per-feature cuts of the fit that grew the trees.
    cuts: Vec<Vec<f64>>,
    /// The features some split reads, ascending; only these are coded.
    used: Vec<u32>,
    trees: Vec<CompleteTree>,
}

impl BinKernel {
    /// Lays `trees`, grown over `binned`, out for the kernel — `None`
    /// when one of them is deeper than [`KERNEL_DEPTH`].
    pub(crate) fn new(trees: &[RegressionTree], binned: BinnedDataset) -> Option<Self> {
        let cuts = binned.cuts;
        assert!(
            cuts.iter().all(|c| c.len() <= NEVER as usize),
            "bin codes must fit a byte"
        );
        let trees: Vec<CompleteTree> = trees
            .iter()
            .map(|t| CompleteTree::new(t, &cuts))
            .collect::<Option<_>>()?;
        let mut used: Vec<u32> = trees
            .iter()
            .flat_map(|t| t.feature.iter().zip(t.bin).filter(|&(_, b)| b != NEVER))
            .map(|(&f, _)| f)
            .collect();
        used.sort_unstable();
        used.dedup();
        Some(Self { cuts, used, trees })
    }

    /// Column-major codes of the batch's first `width` features:
    /// `codes[f * n + i]` for row `i`, zero in the columns no split reads.
    fn quantize(&self, data: &Dataset, width: usize) -> Vec<u8> {
        let (n, p) = (data.n_rows(), data.n_features());
        let values = data.feature_data();
        let mut codes = vec![0u8; width * n];
        for &f in &self.used {
            let f = f as usize;
            let cuts = &self.cuts[f][..];
            for (code, row) in codes[f * n..(f + 1) * n]
                .iter_mut()
                .zip(values.chunks_exact(p))
            {
                let v = row[f];
                *code = cuts.partition_point(|&c| c < v) as u8;
            }
        }
        codes
    }

    /// Per-row sums of the trees' leaf weights, accumulated in tree order:
    /// bit-identical to [`crate::FlatTrees::predict_row_sum`] per row.
    pub(crate) fn predict_batch_sum(&self, data: &Dataset) -> Vec<f64> {
        let n = data.n_rows();
        // Padded tests read column 0, so there is always one.
        let width = self.used.last().map_or(1, |&f| f as usize + 1);
        assert!(
            self.trees.is_empty() || n == 0 || data.n_features() >= width,
            "batch rows have {} features but the ensemble reads feature {}",
            data.n_features(),
            width - 1
        );
        let codes = self.quantize(data, width);
        let mut out = vec![0.0; n];
        let mut leaf = [0u8; KERNEL_BLOCK];
        for (block, out) in out.chunks_mut(KERNEL_BLOCK).enumerate() {
            let start = block * KERNEL_BLOCK;
            let len = out.len();
            let leaf = &mut leaf[..len];
            for tree in &self.trees {
                let cols = tree
                    .feature
                    .map(|f| &codes[f as usize * n + start..][..len]);
                tree.leaves(cols, leaf);
                for (y, &l) in out.iter_mut().zip(leaf.iter()) {
                    *y += tree.weight[l as usize % KERNEL_LEAVES];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_column_one_bin_per_distinct_value_when_small() {
        let vals = [3.0, 1.0, 2.0, 1.0, 3.0];
        let fb = bin_column(&vals, 256);
        assert_eq!(fb.codes, vec![2, 0, 1, 0, 2]);
        assert_eq!(fb.cuts, vec![1.5, 2.5]);
    }

    #[test]
    fn bin_column_quantile_cuts_when_large() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let fb = bin_column(&vals, 4);
        assert_eq!(fb.cuts.len(), 3);
        // Codes are ordered and respect the cut semantics.
        for (v, &c) in vals.iter().zip(&fb.codes) {
            for (b, &cut) in fb.cuts.iter().enumerate() {
                assert_eq!(c as usize <= b, *v <= cut, "value {v} bin {c} cut {cut}");
            }
        }
    }

    #[test]
    fn bin_column_constant_and_nan() {
        let fb = bin_column(&[5.0, 5.0, 5.0], 8);
        assert_eq!(fb.codes, vec![0, 0, 0]);
        assert!(fb.cuts.is_empty());
        let fb = bin_column(&[f64::NAN, 1.0, 2.0], 8);
        assert_eq!(fb.codes[0], 0);
    }

    #[test]
    fn binned_dataset_shape() {
        let data = Dataset::from_rows(
            &[vec![1.0, 10.0], vec![2.0, 10.0], vec![3.0, 20.0]],
            &[0.0; 3],
        );
        let b = BinnedDataset::from_dataset(&data, 16);
        assert_eq!(b.n_rows(), 3);
        assert_eq!(b.n_features(), 2);
        assert_eq!(b.n_bins(0), 3);
        assert_eq!(b.n_bins(1), 2);
        assert_eq!(b.feature_codes(1), &[0, 0, 1]);
    }

    #[test]
    fn fit_binned_learns_step_function() {
        let rows_v: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| if i < 5 { 1.0 } else { 9.0 }).collect();
        let data = Dataset::from_rows(&rows_v, &ys);
        let grad: Vec<f64> = ys.iter().map(|y| -y).collect();
        let hess = vec![1.0; 10];
        let binned = BinnedDataset::from_dataset(&data, DEFAULT_MAX_BINS);
        let rows: Vec<usize> = (0..10).collect();
        let params = TreeParams {
            lambda: 0.0,
            ..Default::default()
        };
        let tree = RegressionTree::fit_binned(&binned, &grad, &hess, &rows, &[0], params);
        assert!((tree.predict_row(&[2.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_row(&[8.0]) - 9.0).abs() < 1e-9);
    }

    /// A binned `n` x `p` problem with `levels` distinct values per
    /// feature, and a row order to fit it in.
    struct Problem {
        binned: BinnedDataset,
        grad: Vec<f64>,
        hess: Vec<f64>,
        rows: Vec<usize>,
    }

    impl Problem {
        fn new(n: usize, p: usize, levels: usize, rows: Vec<usize>) -> Self {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..p)
                        .map(|j| ((i * 31 + j * 17) % levels) as f64)
                        .collect()
                })
                .collect();
            let ys: Vec<f64> = xs.iter().map(|r| r[0] * r[0] - 3.0 * r[p - 1]).collect();
            Self {
                binned: BinnedDataset::from_dataset(
                    &Dataset::from_rows(&xs, &ys),
                    DEFAULT_MAX_BINS,
                ),
                grad: ys.iter().map(|y| 0.37 - y).collect(),
                hess: vec![1.0; n],
                rows,
            }
        }

        /// The tree a fresh workspace grows, checked against `ws`.
        fn fit(&self, ws: &mut TreeWorkspace, feats: &[usize], max_depth: usize) -> RegressionTree {
            let params = TreeParams {
                max_depth,
                ..Default::default()
            };
            let Self {
                binned,
                grad,
                hess,
                rows,
            } = self;
            let fresh = RegressionTree::fit_binned(binned, grad, hess, rows, feats, params);
            ws.rows_mut().clear();
            ws.rows_mut().extend(rows.iter().map(|&i| i as u32));
            let reused = RegressionTree::grow_binned(ws, binned, grad, hess, feats, params);
            assert_eq!(reused, fresh, "features {feats:?}, depth {max_depth}");
            assert!(fresh.n_leaves() > 2, "the fit must actually split");
            fresh
        }
    }

    #[test]
    fn a_reused_workspace_grows_the_same_trees_as_a_fresh_one() {
        // Fits of different shapes — rows, row order, features, bins per
        // feature, depth — back and forth on one workspace: whatever an
        // earlier tree left in the buffers must not reach a later one.
        let wide = Problem::new(300, 5, 40, (0..300).rev().filter(|i| i % 4 != 1).collect());
        let small = Problem::new(17, 3, 6, (0..17).collect());
        let mut ws = TreeWorkspace::default();
        for _ in 0..2 {
            wide.fit(&mut ws, &[4, 0, 2], 7);
            small.fit(&mut ws, &[0, 1, 2], 3);
            wide.fit(&mut ws, &[1, 3], 3);
            small.fit(&mut ws, &[2], 7);
        }
    }

    #[test]
    fn kernel_pads_shallow_leaves_to_their_leftmost_descendant() {
        // x0 <= 0.5 is a leaf; x0 > 0.5 splits again on x1.
        let rows = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
        let ys = [1.0, 1.0, 5.0, 9.0];
        let data = Dataset::from_rows(&rows.map(|r| r.to_vec()), &ys);
        let grad: Vec<f64> = ys.iter().map(|y| -y).collect();
        let binned = BinnedDataset::from_dataset(&data, DEFAULT_MAX_BINS);
        let params = TreeParams {
            lambda: 0.0,
            min_child_weight: 0.0,
            ..Default::default()
        };
        let tree =
            RegressionTree::fit_binned(&binned, &grad, &[1.0; 4], &[0, 1, 2, 3], &[0, 1], params);
        assert_eq!((tree.depth(), tree.n_leaves()), (2, 3));
        let kernel = BinKernel::new(std::slice::from_ref(&tree), binned).expect("two levels");
        let t = &kernel.trees[0];
        assert_eq!((t.feature[0], t.bin[0]), (0, 0));
        assert_eq!((t.feature[2], t.bin[2]), (1, 0));
        assert_eq!(t.bin[1], NEVER, "the left child is a leaf");
        assert_eq!([t.bin[3], t.bin[4], t.bin[5], t.bin[6]], [NEVER; 4]);
        assert_eq!(t.weight, [1.0, 0.0, 0.0, 0.0, 5.0, 0.0, 9.0, 0.0]);
        assert_eq!(kernel.used, vec![0, 1]);
        assert_eq!(kernel.predict_batch_sum(&data), ys);
    }
}
