//! Synthetic Scopus-like publication database (paper Section 4.1).
//!
//! The real benchmark is 2,359,828 Scopus publications in three subject
//! areas with 3,942,559 distinct features. We cannot redistribute Scopus, so
//! this generator reproduces the database's *shape* at configurable scale:
//!
//! * the paper's class priors — Artificial Intelligence (ASJC 1702, 43.4%),
//!   Decision Sciences (18XX, 38.5%), Statistics & Probability (2613, 18.1%);
//! * the star schema of Figure 2 — `publication` fact table plus
//!   `pub_author` / `pub_keyword` dimension tables;
//! * Zipf-distributed venues, authors, keywords and abstract lexemes with
//!   class-conditional vocabularies (so the classification task is
//!   learnable and venue names dominate the global explanation, as in the
//!   paper's Table 3);
//! * an optional *chronological drift* mode where later publications carry
//!   more authors, more keywords, longer abstracts, and ever-fresh feature
//!   values — the regime of Figure 5, panels (b)/(e).
//!
//! Abstracts are generated as text and also pre-vectorized into a
//! `pub_lexeme(pubid, lexeme, cnt)` table. This substitutes PostgreSQL's
//! `tsvector` machinery (see the `textproc` crate), which our engine does
//! not provide; the `(j, w)` rows it feeds to BornSQL are identical in
//! form to the paper's `unnest(abstract)` query.

use seeded::SplitMix64;
use sqlengine::{Database, Value};

use crate::zipf::Zipf;

/// ASJC macro code for Artificial Intelligence (17 after `/ 100`).
pub const ASJC_AI: i64 = 1702;
/// ASJC macro prefix for Decision Sciences (18 after `/ 100`).
pub const ASJC_DS: i64 = 1800;
/// ASJC macro code for Statistics and Probability (26 after `/ 100`).
pub const ASJC_STATS: i64 = 2613;

/// Class priors from the paper's Table 1.
const PRIORS: [(usize, f64); 3] = [
    (0, 1_024_703.0 / 2_359_828.0), // AI
    (1, 908_784.0 / 2_359_828.0),   // Decision Sciences
    (2, 426_341.0 / 2_359_828.0),   // Statistics
];

const CLASS_TAGS: [&str; 3] = ["ai", "ds", "st"];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct ScopusConfig {
    /// Number of publications to generate (the paper uses 2,359,828; the
    /// default is laptop-scale — experiments sweep this).
    pub n_publications: usize,
    pub seed: u64,
    /// Chronological drift: later items have more authors/keywords, longer
    /// abstracts, and continually fresh feature values (Figure 5(b)).
    pub drift: bool,
    /// Venues per class.
    pub venues_per_class: usize,
    /// Size of each class's author pool.
    pub authors_per_class: usize,
    /// Size of each class's keyword pool.
    pub keywords_per_class: usize,
    /// Size of each class's abstract vocabulary (plus a shared pool of the
    /// same size). Kept finite so the abstract-only scenario (Figure 5(c))
    /// saturates.
    pub abstract_vocab: usize,
    /// Mean abstract length in tokens.
    pub abstract_len: usize,
    /// Probability that a publication's recorded ASJC class differs from
    /// the class that generated its content. Real subject areas overlap
    /// (an ML-for-OR paper may be indexed under Decision Sciences), which
    /// is why the paper's classifiers do not reach 100% accuracy.
    pub label_noise: f64,
}

impl Default for ScopusConfig {
    fn default() -> Self {
        ScopusConfig {
            n_publications: 5_000,
            seed: 42,
            drift: false,
            venues_per_class: 150,
            authors_per_class: 2_000,
            keywords_per_class: 1_200,
            abstract_vocab: 800,
            abstract_len: 40,
            label_noise: 0.06,
        }
    }
}

impl ScopusConfig {
    /// A small configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        ScopusConfig {
            n_publications: 300,
            seed,
            venues_per_class: 20,
            authors_per_class: 100,
            keywords_per_class: 60,
            abstract_vocab: 80,
            abstract_len: 15,
            drift: false,
            label_noise: 0.06,
        }
    }
}

/// One generated publication.
#[derive(Debug, Clone)]
pub struct Publication {
    pub id: i64,
    pub pubname: String,
    pub asjc: i64,
    pub abstract_text: String,
}

/// The generated database content (Figure 2's schema plus the pre-vectorized
/// abstract table).
#[derive(Debug, Clone)]
pub struct ScopusData {
    pub publications: Vec<Publication>,
    pub pub_author: Vec<(i64, i64)>,
    pub pub_keyword: Vec<(i64, String)>,
    /// `(pubid, lexeme, count)` — the vectorized abstracts.
    pub pub_lexeme: Vec<(i64, String, f64)>,
}

/// Draw from a Poisson(λ) (Knuth's method; λ is small here).
fn poisson(rng: &mut SplitMix64, lambda: f64) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.unit_f64();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // guard against pathological λ
        }
    }
}

/// Generate a Scopus-like database.
pub fn generate(config: &ScopusConfig) -> ScopusData {
    let mut rng = SplitMix64::new(config.seed);
    let n = config.n_publications;

    let venue_zipf = Zipf::new(config.venues_per_class, 1.1);
    let author_zipf = Zipf::new(config.authors_per_class, 1.05);
    let keyword_zipf = Zipf::new(config.keywords_per_class, 1.05);
    let vocab_zipf = Zipf::new(config.abstract_vocab, 1.0);

    let mut publications = Vec::with_capacity(n);
    let mut pub_author = Vec::new();
    let mut pub_keyword = Vec::new();
    let mut pub_lexeme = Vec::new();

    // Fresh-value counters for the drift regime.
    let mut fresh_author = 9_000_000i64;
    let mut fresh_keyword = 0u64;
    let mut fresh_lexeme = 0u64;

    for id in 1..=(n as i64) {
        // Chronological position in [0, 1] (ids are ordered by date).
        let t = id as f64 / n as f64;

        // Class by the paper's priors.
        let u = rng.unit_f64();
        let class = {
            let mut acc = 0.0;
            let mut chosen = 2;
            for (c, p) in PRIORS {
                acc += p;
                if u < acc {
                    chosen = c;
                    break;
                }
            }
            chosen
        };
        let tag = CLASS_TAGS[class];
        // Content is generated from `class`; the *recorded* label may be a
        // different (overlapping) subject area with probability label_noise.
        let label_class = if rng.chance(config.label_noise) {
            rng.below(3)
        } else {
            class
        };
        let asjc = match label_class {
            0 => ASJC_AI,
            1 => ASJC_DS + rng.range(1..5), // 1801..1804 sub-fields
            _ => ASJC_STATS,
        };

        // Venue: mostly class-conditional, sometimes cross-listed.
        let venue_class = if rng.chance(0.9) { class } else { rng.below(3) };
        let pubname = format!(
            "journal of {} studies {}",
            CLASS_TAGS[venue_class],
            venue_zipf.sample(&mut rng)
        );

        // Authors.
        let (author_lambda, fresh_author_p) = if config.drift {
            (1.5 + 4.0 * t, 0.10 + 0.35 * t)
        } else {
            (3.0, 0.0)
        };
        let n_authors = 1 + poisson(&mut rng, author_lambda);
        for _ in 0..n_authors {
            let authid = if config.drift && rng.chance(fresh_author_p) {
                fresh_author += 1;
                fresh_author
            } else {
                // Class pools are disjoint ranges of author ids.
                (class * config.authors_per_class + author_zipf.sample(&mut rng)) as i64 + 1_000_000
            };
            pub_author.push((id, authid));
        }

        // Keywords.
        let (kw_lambda, fresh_kw_p) = if config.drift {
            (1.5 + 4.0 * t, 0.10 + 0.30 * t)
        } else {
            (3.5, 0.0)
        };
        let n_keywords = 1 + poisson(&mut rng, kw_lambda);
        for _ in 0..n_keywords {
            let kw = if config.drift && rng.chance(fresh_kw_p) {
                fresh_keyword += 1;
                format!("emerging topic {fresh_keyword}")
            } else if rng.chance(0.75) {
                format!("{tag} keyword {}", keyword_zipf.sample(&mut rng))
            } else {
                format!("shared keyword {}", keyword_zipf.sample(&mut rng))
            };
            pub_keyword.push((id, kw));
        }

        // Abstract: class vocabulary mixed with a shared vocabulary.
        let len_scale = if config.drift { 0.5 + 1.5 * t } else { 1.0 };
        let n_tokens = ((config.abstract_len as f64) * len_scale).round() as usize;
        let fresh_tok_p = if config.drift { 0.01 + 0.04 * t } else { 0.0 };
        let mut counts: std::collections::BTreeMap<String, f64> = Default::default();
        let mut words = Vec::with_capacity(n_tokens.max(1));
        for _ in 0..n_tokens.max(3) {
            let tok = if config.drift && rng.chance(fresh_tok_p) {
                fresh_lexeme += 1;
                format!("neolog{fresh_lexeme}")
            } else if rng.chance(0.55) {
                format!("{tag}term{}", vocab_zipf.sample(&mut rng))
            } else {
                format!("word{}", vocab_zipf.sample(&mut rng))
            };
            *counts.entry(tok.clone()).or_insert(0.0) += 1.0;
            words.push(tok);
        }
        let abstract_text = words.join(" ");
        for (lexeme, cnt) in counts {
            pub_lexeme.push((id, lexeme, cnt));
        }

        publications.push(Publication {
            id,
            pubname,
            asjc,
            abstract_text,
        });
    }

    ScopusData {
        publications,
        pub_author,
        pub_keyword,
        pub_lexeme,
    }
}

impl ScopusData {
    /// Create the schema of Figure 2 (plus the vectorized-abstract table)
    /// and load all rows.
    pub fn load_into(&self, db: &Database) -> sqlengine::Result<()> {
        db.execute(
            "CREATE TABLE publication (id INTEGER PRIMARY KEY, pubname TEXT, asjc INTEGER, abstract TEXT)",
        )?;
        db.execute("CREATE TABLE pub_author (pubid INTEGER, authid INTEGER)")?;
        db.execute("CREATE TABLE pub_keyword (pubid INTEGER, keyword TEXT)")?;
        db.execute("CREATE TABLE pub_lexeme (pubid INTEGER, lexeme TEXT, cnt REAL)")?;
        db.insert_rows(
            "publication",
            self.publications
                .iter()
                .map(|p| {
                    vec![
                        Value::Int(p.id),
                        Value::text(&p.pubname),
                        Value::Int(p.asjc),
                        Value::text(&p.abstract_text),
                    ]
                })
                .collect(),
        )?;
        db.insert_rows(
            "pub_author",
            self.pub_author
                .iter()
                .map(|(p, a)| vec![Value::Int(*p), Value::Int(*a)])
                .collect(),
        )?;
        db.insert_rows(
            "pub_keyword",
            self.pub_keyword
                .iter()
                .map(|(p, k)| vec![Value::Int(*p), Value::text(k)])
                .collect(),
        )?;
        db.insert_rows(
            "pub_lexeme",
            self.pub_lexeme
                .iter()
                .map(|(p, l, c)| vec![Value::Int(*p), Value::text(l), Value::Float(*c)])
                .collect(),
        )?;
        Ok(())
    }

    /// Count of items per macro class (`asjc / 100`), for Table 1.
    pub fn class_distribution(&self) -> Vec<(i64, usize)> {
        let mut counts: std::collections::BTreeMap<i64, usize> = Default::default();
        for p in &self.publications {
            *counts.entry(p.asjc / 100).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

/// The paper's `q_x` arms (Section 4.2): one `SELECT` per attribute family,
/// each prefixed to avoid feature collisions.
pub fn qx_arms(abstract_only: bool) -> Vec<String> {
    let mut arms = Vec::new();
    if !abstract_only {
        arms.push(
            "SELECT id AS n, 'pubname:' || pubname AS j, 1.0 AS w FROM publication".to_string(),
        );
        arms.push(
            "SELECT pubid AS n, 'authid:' || authid AS j, 1.0 AS w FROM pub_author".to_string(),
        );
        arms.push(
            "SELECT pubid AS n, 'keyword:' || keyword AS j, 1.0 AS w FROM pub_keyword".to_string(),
        );
    }
    arms.push(
        "SELECT pubid AS n, 'abstract:' || lexeme AS j, cnt AS w FROM pub_lexeme".to_string(),
    );
    arms
}

/// The paper's `q_y`: the macro subject area is the first two ASJC digits.
pub fn qy() -> String {
    "SELECT id AS n, asjc / 100 AS k, 1.0 AS w FROM publication".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priors_roughly_match_table_1() {
        let data = generate(&ScopusConfig {
            n_publications: 4_000,
            ..ScopusConfig::tiny(1)
        });
        let dist = data.class_distribution();
        let total: usize = dist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4_000);
        let frac = |k: i64| {
            dist.iter()
                .find(|(c, _)| *c == k)
                .map(|(_, n)| *n as f64 / total as f64)
                .unwrap_or(0.0)
        };
        assert!((frac(17) - 0.434).abs() < 0.04, "AI prior {}", frac(17));
        assert!((frac(18) - 0.385).abs() < 0.04, "DS prior {}", frac(18));
        assert!((frac(26) - 0.181).abs() < 0.04, "Stats prior {}", frac(26));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&ScopusConfig::tiny(9));
        let b = generate(&ScopusConfig::tiny(9));
        assert_eq!(a.publications.len(), b.publications.len());
        assert_eq!(a.publications[5].pubname, b.publications[5].pubname);
        assert_eq!(a.pub_keyword, b.pub_keyword);
    }

    #[test]
    fn drift_grows_features_per_item() {
        let cfg = ScopusConfig {
            drift: true,
            n_publications: 2_000,
            ..ScopusConfig::tiny(3)
        };
        let data = generate(&cfg);
        // Average authors per publication in the first vs last decile.
        let count_in = |lo: i64, hi: i64| {
            data.pub_author
                .iter()
                .filter(|(p, _)| *p > lo && *p <= hi)
                .count() as f64
                / (hi - lo) as f64
        };
        let early = count_in(0, 200);
        let late = count_in(1800, 2000);
        assert!(
            late > early * 1.5,
            "drift must add authors over time: early {early}, late {late}"
        );
    }

    #[test]
    fn loads_into_database() {
        let data = generate(&ScopusConfig::tiny(4));
        let db = Database::new();
        data.load_into(&db).unwrap();
        assert_eq!(db.table_rows("publication").unwrap(), 300);
        assert!(db.table_rows("pub_author").unwrap() > 300);
        assert!(db.table_rows("pub_keyword").unwrap() > 300);
        assert!(db.table_rows("pub_lexeme").unwrap() > 300);
        // q_y yields the three macro classes.
        let r = db
            .query("SELECT DISTINCT asjc / 100 AS k FROM publication ORDER BY k")
            .unwrap();
        let ks: Vec<i64> = r
            .rows
            .iter()
            .map(|row| row[0].as_i64().unwrap().unwrap())
            .collect();
        assert_eq!(ks, vec![17, 18, 26]);
    }

    #[test]
    fn qx_arms_cover_all_families() {
        let arms = qx_arms(false);
        assert_eq!(arms.len(), 4);
        assert!(arms[0].contains("pubname:"));
        assert!(arms[3].contains("abstract:"));
        assert_eq!(qx_arms(true).len(), 1);
    }
}
