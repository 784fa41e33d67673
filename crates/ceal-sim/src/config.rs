//! Integer parameter grids — the building block of configuration spaces.
//!
//! Every tunable in the paper's Table 1 is an evenly strided integer range
//! (e.g. `# processes ∈ {2, 3, …, 1085}`, `# outputs ∈ {4, 8, …, 32}`), so a
//! parameter is `(name, lo, hi, step)` and a component configuration is a
//! vector of chosen values, one per parameter.

use rand::Rng;

/// An inclusive, evenly strided integer parameter range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDef {
    /// Human-readable name (used in reports and feature labels).
    pub name: &'static str,
    /// Smallest allowed value.
    pub lo: i64,
    /// Largest allowed value (inclusive; snapped down to the grid).
    pub hi: i64,
    /// Stride between consecutive options (≥ 1).
    pub step: i64,
}

impl ParamDef {
    /// Creates a range parameter with stride 1.
    pub const fn range(name: &'static str, lo: i64, hi: i64) -> Self {
        Self {
            name,
            lo,
            hi,
            step: 1,
        }
    }

    /// Creates a strided range parameter.
    pub const fn strided(name: &'static str, lo: i64, hi: i64, step: i64) -> Self {
        Self { name, lo, hi, step }
    }

    /// Creates a fixed (single-option) parameter.
    pub const fn fixed(name: &'static str, value: i64) -> Self {
        Self {
            name,
            lo: value,
            hi: value,
            step: 1,
        }
    }

    /// Number of selectable options.
    pub fn n_options(&self) -> u64 {
        if self.hi < self.lo {
            return 0;
        }
        ((self.hi - self.lo) / self.step) as u64 + 1
    }

    /// The `i`-th option (0-based).
    ///
    /// # Panics
    /// Panics if `i >= n_options()`.
    fn value_at(&self, i: u64) -> i64 {
        assert!(
            i < self.n_options(),
            "option index {i} out of range for {}",
            self.name
        );
        self.lo + (i as i64) * self.step
    }

    /// True when `v` is one of the options.
    pub fn contains(&self, v: i64) -> bool {
        v >= self.lo && v <= self.hi && (v - self.lo) % self.step == 0
    }

    /// Uniformly samples one option.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> i64 {
        self.value_at(rng.gen_range(0..self.n_options()))
    }

    /// Options adjacent to `v` on the grid (one step down/up, clipped),
    /// used to build GEIST-style parameter graphs.
    pub fn neighbors(&self, v: i64) -> Vec<i64> {
        let mut out = Vec::with_capacity(2);
        if self.contains(v - self.step) {
            out.push(v - self.step);
        }
        if self.contains(v + self.step) {
            out.push(v + self.step);
        }
        out
    }
}

/// Total number of configurations in a cartesian product of parameters.
pub fn space_size(params: &[ParamDef]) -> f64 {
    params.iter().map(|p| p.n_options() as f64).product()
}

/// Uniformly samples one value per parameter.
pub fn sample_values<R: Rng>(params: &[ParamDef], rng: &mut R) -> Vec<i64> {
    let mut values = Vec::with_capacity(params.len());
    sample_values_into(params, rng, &mut values);
    values
}

/// [`sample_values`] into a buffer the caller reuses: `values` is
/// overwritten, and the draws are the same.
pub fn sample_values_into<R: Rng>(params: &[ParamDef], rng: &mut R, values: &mut Vec<i64>) {
    values.clear();
    values.extend(params.iter().map(|p| p.sample(rng)));
}

/// True when `values` selects a valid option for every parameter.
pub fn values_valid(params: &[ParamDef], values: &[i64]) -> bool {
    values.len() == params.len() && params.iter().zip(values).all(|(p, &v)| p.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn option_counts() {
        assert_eq!(ParamDef::range("p", 2, 1085).n_options(), 1084);
        assert_eq!(ParamDef::strided("o", 4, 32, 4).n_options(), 8);
        assert_eq!(ParamDef::fixed("f", 1).n_options(), 1);
    }

    #[test]
    fn value_at_walks_the_grid() {
        let p = ParamDef::strided("o", 4, 32, 4);
        assert_eq!(p.value_at(0), 4);
        assert_eq!(p.value_at(7), 32);
    }

    #[test]
    fn contains_respects_stride() {
        let p = ParamDef::strided("o", 4, 32, 4);
        assert!(p.contains(8));
        assert!(!p.contains(9));
        assert!(!p.contains(0));
        assert!(!p.contains(36));
    }

    #[test]
    fn sample_stays_on_grid() {
        let p = ParamDef::strided("o", 4, 32, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(p.contains(p.sample(&mut rng)));
        }
    }

    #[test]
    fn neighbors_clip_at_bounds() {
        let p = ParamDef::range("t", 1, 4);
        assert_eq!(p.neighbors(1), vec![2]);
        assert_eq!(p.neighbors(3), vec![2, 4]);
        assert_eq!(p.neighbors(4), vec![3]);
    }

    #[test]
    fn space_size_multiplies() {
        let params = [
            ParamDef::range("a", 2, 1085),
            ParamDef::range("b", 1, 35),
            ParamDef::range("c", 1, 4),
        ];
        assert_eq!(space_size(&params), 1084.0 * 35.0 * 4.0);
    }

    #[test]
    fn values_valid_checks_all() {
        let params = [ParamDef::range("a", 1, 3), ParamDef::strided("b", 2, 10, 2)];
        assert!(values_valid(&params, &[2, 6]));
        assert!(!values_valid(&params, &[2, 5]));
        assert!(!values_valid(&params, &[2]));
    }

    #[test]
    #[should_panic(expected = "option index")]
    fn value_at_rejects_out_of_range() {
        ParamDef::range("a", 1, 3).value_at(3);
    }
}
