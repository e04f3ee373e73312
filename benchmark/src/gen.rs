//! Seeded input generator: a Scopus-like stream of publications (paper
//! Section 4.1) drawn from splitmix64 and Zipf samplers.
//!
//! Everything the engine sees is derived from the documents made here, so
//! one `--seed` fixes every row, every SQL text and every raw abstract the
//! benchmark feeds in. The generator knows nothing about table layouts; the
//! two data shapes are laid out in `fixture.rs`.

/// splitmix64 (Steele, Lea & Flood 2014): one 64-bit state word, full
/// period, and cheap enough that generation never shows in `setup_s`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding a draw to one
    /// consumer never shifts another consumer's inputs.
    pub fn fork(seed: u64, purpose: &str) -> Rng {
        let mut rng = Rng(seed ^ fnv1a(purpose.as_bytes()));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Poisson(λ) by Knuth's product method; λ is at most a few units here.
    fn poisson(&mut self, lambda: f64) -> usize {
        let limit = (-lambda).exp();
        let mut k = 0;
        let mut p = self.next_f64();
        while p > limit {
            k += 1;
            p *= self.next_f64();
        }
        k
    }
}

/// FNV-1a, used for stream forking and the input digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Zipf sampler over ranks `0..n` with exponent `s`, by inverse transform
/// on the precomputed cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Subject areas with the paper's Table 1 priors: Artificial Intelligence
/// (ASJC 1702), Decision Sciences (18xx), Statistics and Probability (2613).
pub const CLASS_TAGS: [&str; 3] = ["ai", "ds", "st"];
const CLASS_PRIORS: [f64; 3] = [0.434, 0.385, 0.181];

const VENUES_PER_CLASS: usize = 150;
const AUTHORS_PER_CLASS: usize = 2_000;
const KEYWORDS_PER_CLASS: usize = 1_200;
const ABSTRACT_VOCAB: usize = 800;
/// Content tokens per abstract; with the Zipf(1.0) vocabulary this leaves
/// about 35 distinct lexemes per document.
const ABSTRACT_TOKENS: usize = 46;
/// Share of documents whose recorded label is not the class their content
/// was drawn from: subject areas overlap, so the task is not separable.
const LABEL_NOISE: f64 = 0.06;

/// One generated publication, before any table layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    pub id: i64,
    /// Index into [`CLASS_TAGS`] of the recorded label.
    pub label: usize,
    /// Recorded ASJC code; `asjc / 100` is the star shape's class column.
    pub asjc: i64,
    pub venue: String,
    pub authors: Vec<i64>,
    pub keywords: Vec<String>,
    /// Raw text with stop words and punctuation, for `textproc`.
    pub abstract_text: String,
}

/// The samplers, built once per generator.
pub struct DocGen {
    rng: Rng,
    venue: Zipf,
    author: Zipf,
    keyword: Zipf,
    vocab: Zipf,
}

impl DocGen {
    pub fn new(seed: u64) -> DocGen {
        DocGen {
            rng: Rng::fork(seed, "docs"),
            venue: Zipf::new(VENUES_PER_CLASS, 1.1),
            author: Zipf::new(AUTHORS_PER_CLASS, 1.05),
            keyword: Zipf::new(KEYWORDS_PER_CLASS, 1.05),
            vocab: Zipf::new(ABSTRACT_VOCAB, 1.0),
        }
    }

    /// The next `n` documents, with ids `first_id..first_id + n`.
    pub fn docs(&mut self, first_id: i64, n: usize) -> Vec<Doc> {
        (0..n).map(|i| self.doc(first_id + i as i64)).collect()
    }

    fn doc(&mut self, id: i64) -> Doc {
        let rng = &mut self.rng;
        let u = rng.next_f64();
        let class = if u < CLASS_PRIORS[0] {
            0
        } else if u < CLASS_PRIORS[0] + CLASS_PRIORS[1] {
            1
        } else {
            2
        };
        let tag = CLASS_TAGS[class];
        let label = if rng.chance(LABEL_NOISE) {
            rng.below(3)
        } else {
            class
        };
        let asjc = match label {
            0 => 1702,
            1 => 1801 + rng.below(4) as i64,
            _ => 2613,
        };

        let venue_class = if rng.chance(0.9) { class } else { rng.below(3) };
        let venue = format!(
            "journal of {} studies {}",
            CLASS_TAGS[venue_class],
            self.venue.sample(rng)
        );

        let mut authors: Vec<i64> = (0..1 + rng.poisson(3.0))
            .map(|_| 1_000_000 + (class * AUTHORS_PER_CLASS + self.author.sample(rng)) as i64)
            .collect();
        authors.sort_unstable();
        authors.dedup();

        let mut keywords: Vec<String> = (0..1 + rng.poisson(3.5))
            .map(|_| {
                let pool = if rng.chance(0.75) { tag } else { "shared" };
                format!("{pool} keyword {}", self.keyword.sample(rng))
            })
            .collect();
        keywords.sort_unstable();
        keywords.dedup();

        let mut abstract_text = String::with_capacity(ABSTRACT_TOKENS * 12);
        for i in 0..ABSTRACT_TOKENS {
            if i > 0 {
                // Stop words and punctuation the tokenizer has to discard.
                abstract_text.push_str(match rng.below(6) {
                    0 => " of the ",
                    1 => ", ",
                    2 => ". The ",
                    _ => " ",
                });
            }
            let rank = self.vocab.sample(rng);
            if rng.chance(0.55) {
                abstract_text.push_str(&format!("{tag}term{rank}"));
            } else {
                abstract_text.push_str(&format!("word{rank}"));
            }
        }

        Doc {
            id,
            label,
            asjc,
            venue,
            authors,
            keywords,
            abstract_text,
        }
    }
}

/// Digest of a document stream, printed with the results so two runs can
/// show they measured byte-identical inputs.
pub fn digest(docs: &[Doc]) -> u64 {
    let mut h = 0u64;
    for d in docs {
        let line = format!(
            "{}|{}|{}|{}|{:?}|{:?}|{}\n",
            d.id, d.label, d.asjc, d.venue, d.authors, d.keywords, d.abstract_text
        );
        h = h.rotate_left(5) ^ fnv1a(line.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_a_byte_identical_input_digest() {
        let a = DocGen::new(7).docs(1, 300);
        let b = DocGen::new(7).docs(1, 300);
        assert_eq!(a, b);
        assert_eq!(digest(&a), digest(&b));
        let other = DocGen::new(8).docs(1, 300);
        assert_ne!(digest(&a), digest(&other));
    }

    #[test]
    fn generation_is_independent_of_batching() {
        let whole = DocGen::new(11).docs(1, 60);
        let mut g = DocGen::new(11);
        let mut parts = g.docs(1, 25);
        parts.extend(g.docs(26, 35));
        assert_eq!(whole, parts);
    }

    #[test]
    fn class_priors_follow_table_1() {
        let docs = DocGen::new(3).docs(1, 6_000);
        let share = |l: usize| docs.iter().filter(|d| d.label == l).count() as f64 / 6_000.0;
        assert!((share(0) - 0.434).abs() < 0.04, "ai {}", share(0));
        assert!((share(1) - 0.385).abs() < 0.04, "ds {}", share(1));
        assert!((share(2) - 0.181).abs() < 0.04, "st {}", share(2));
    }

    #[test]
    fn abstracts_hold_about_35_distinct_lexemes() {
        let docs = DocGen::new(5).docs(1, 500);
        let v = textproc::CountVectorizer::default();
        let mean = docs
            .iter()
            .map(|d| v.vectorize(&d.abstract_text).len())
            .sum::<usize>() as f64
            / 500.0;
        assert!((30.0..40.0).contains(&mean), "mean distinct lexemes {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let mut first = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 100);
            first += usize::from(r == 0);
        }
        // Rank 0 carries 1/H_100 ≈ 19 % of the mass.
        assert!((1_500..2_400).contains(&first), "rank-0 draws {first}");
    }
}
