//! Inputs.
//!
//! The archives, the stream and every query come from the repository's own
//! generators (`coconut_series::generator`) under the fixed seeds below: they
//! are **the same in every run**, whatever `--seed` says, so recall, space
//! and every count repeat exactly and two runs differ by what the host did
//! and by nothing in the data.  `--seed` decides the *order* in which a
//! session issues its requests ([`Rng::shuffle`], [`Zipf`]); the bench's own
//! small generator below serves that, and the noise on member queries.

use std::io::{BufWriter, Write};
use std::path::Path;

use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};

/// Seeds of the frozen inputs, one per role.
pub const ARCHIVE_SEED: u64 = 0xC0C0_0001;
pub const INSERT_SEED: u64 = 0xC0C0_0002;
pub const QUERY_SEED: u64 = 0xC0C0_0003;
pub const STREAM_SEED: u64 = 0xC0C0_0004;

/// xoshiro256** seeded through splitmix64.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.unit() * n as f64) as u64
    }

    /// A standard Gaussian (Box-Muller).
    fn gaussian(&mut self) -> f64 {
        let u1 = loop {
            let u = self.unit();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * self.unit()).cos()
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Rounds to 1/1024: a value that travels as decimal text is then the exact
/// value the oracle searched with.
pub fn rounded(mut values: Vec<f32>) -> Vec<f32> {
    for v in values.iter_mut() {
        *v = (*v * 1024.0).round() / 1024.0;
    }
    values
}

/// `count` z-normalized random walks of `len` points, flat.
pub fn random_walks(seed: u64, count: usize, len: usize) -> Vec<f32> {
    let mut generator = RandomWalkGenerator::new(len, seed);
    let mut out = Vec::with_capacity(count * len);
    for _ in 0..count {
        out.extend(generator.next_series().values);
    }
    out
}

/// `count` queries over the archive `data`: the even ones noisy copies of
/// members (easy pruning: a near neighbour exists), the odd ones fresh walks
/// (hard: nothing is near); all rounded.
pub fn queries(seed: u64, data: &[f32], count: usize, len: usize) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed);
    let mut fresh = RandomWalkGenerator::new(len, seed);
    let members = (data.len() / len) as u64;
    (0..count)
        .map(|i| {
            rounded(if i % 2 == 0 {
                let m = rng.below(members) as usize;
                let mut copy: Vec<f32> = data[m * len..(m + 1) * len]
                    .iter()
                    .map(|&v| (v as f64 + 0.1 * rng.gaussian()) as f32)
                    .collect();
                coconut_series::znormalize_in_place(&mut copy);
                copy
            } else {
                fresh.next_series().values
            })
        })
        .collect()
}

/// Zipf(s) over `0..n` by inversion of the cumulative weights.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        for c in cumulative.iter_mut() {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Writes the repo's raw dataset format: `COCOSER1`, u32 LE series length,
/// u64 LE count, then f32 LE values.  Written by hand so the file the server
/// reads does not depend on the code under test.
pub fn write_dataset(path: &Path, data: &[f32], len: usize) -> std::io::Result<()> {
    assert!(len > 0 && data.len().is_multiple_of(len));
    let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    w.write_all(b"COCOSER1")?;
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&((data.len() / len) as u64).to_le_bytes())?;
    for v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_and_orders_follow_the_seed() {
        assert_eq!(random_walks(7, 3, 64), random_walks(7, 3, 64));
        assert_ne!(random_walks(7, 3, 64), random_walks(8, 3, 64));
        let data = random_walks(7, 50, 64);
        assert_eq!(queries(9, &data, 6, 64), queries(9, &data, 6, 64));
        let order = |seed| {
            let mut items: Vec<u32> = (0..100).collect();
            Rng::new(seed).shuffle(&mut items);
            items
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let mut sorted = order(1);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn wire_values_survive_decimal_text() {
        let data = random_walks(7, 4, 64);
        for v in queries(9, &data, 4, 64).concat() {
            assert_eq!(format!("{v}").parse::<f32>().unwrap(), v);
            assert_eq!((v * 1024.0).fract(), 0.0);
        }
    }

    #[test]
    fn zipf_sampler_matches_its_law() {
        let zipf = Zipf::new(256, 1.0);
        let mut rng = Rng::new(3);
        let mut counts = vec![0u32; 256];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(256) ~ 6.124: rank 0 holds 1/H of the mass, rank 1 half of that.
        let h: f64 = (1..=256).map(|r| 1.0 / r as f64).sum();
        let p0 = counts[0] as f64 / draws as f64;
        let p1 = counts[1] as f64 / draws as f64;
        assert!((p0 - 1.0 / h).abs() < 0.01, "{p0}");
        assert!((p1 - 0.5 / h).abs() < 0.01, "{p1}");
        assert!(counts.iter().all(|&c| c > 0), "every template is drawn");
        assert!(counts[0] > counts[10] && counts[10] > counts[200]);
    }
}
