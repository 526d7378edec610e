//! A seeded Zipf(α) sampler over `0..n` via precomputed CDF and binary
//! search — word frequencies in the synthetic corpus follow the same skew
//! real text does, which matters for IDF, feature selection and index
//! compression behaviour.

use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `alpha`
/// (P(rank k) ∝ 1/(k+1)^alpha).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    pub fn support(&self) -> usize {
        self.cdf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn skew_matches_alpha() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[50]);
        // Rank 0 vs rank 1 should be roughly 2:1 under alpha=1.
        let ratio = f64::from(counts[0]) / f64::from(counts[1].max(1));
        assert!((1.5..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn all_samples_in_support() {
        let z = Zipf::new(7, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn sample_is_the_first_rank_whose_cdf_covers_the_draw() {
        let z = Zipf::new(50, 0.8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut draws = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let u: f64 = draws.gen();
            let expected = z.cdf.iter().position(|&c| c >= u).unwrap_or(49);
            assert_eq!(z.sample(&mut rng), expected);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(50, 0.8);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
