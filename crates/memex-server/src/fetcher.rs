//! The fetch demon's page source. In 2000 this was an HTTP crawler; here
//! it is a trait so the server runs identically against the simulated
//! corpus (or any future real fetcher).
//!
//! Real crawls fail: the paper's server "recovers from network and
//! programming errors quickly". To test that, [`FlakyFetcher`] wraps any
//! fetcher with seeded transient failures and simulated latency, and
//! [`RetryPolicy`] bounds how hard the index demon tries before counting
//! a page abandoned and moving on. Both are deterministic given a seed —
//! a failing run reproduces exactly.

use std::collections::HashMap;
use std::sync::Mutex;

use memex_store::vfs::SplitMix64;
use memex_web::corpus::Corpus;

/// What a fetch returns: body text, out-links, transfer size.
#[derive(Debug, Clone)]
pub struct PageContent {
    pub title: String,
    pub text: String,
    pub links: Vec<u32>,
    pub bytes: u32,
}

/// Why a fetch attempt produced no content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// The page does not exist (dead link); retrying cannot help.
    NotFound,
    /// A transient failure (timeout, reset, 5xx); a retry may succeed.
    Transient { reason: String },
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::NotFound => write!(f, "page not found"),
            FetchError::Transient { reason } => write!(f, "transient fetch failure: {reason}"),
        }
    }
}

/// A source of page content addressed by dense page id.
pub trait PageFetcher {
    fn fetch(&self, page: u32) -> Option<PageContent>;

    /// Like [`PageFetcher::fetch`] but distinguishes *why* nothing came
    /// back — the retry loop treats [`FetchError::NotFound`] as final and
    /// [`FetchError::Transient`] as retryable. The default adapter maps
    /// `None` to `NotFound`, so plain fetchers never look retryable.
    fn try_fetch(&self, page: u32) -> Result<PageContent, FetchError> {
        self.fetch(page).ok_or(FetchError::NotFound)
    }

    /// Number of addressable pages (ids are `0..num_pages`).
    fn num_pages(&self) -> usize;
}

/// Fetcher over the synthetic corpus (shared, so a server and its
/// surrounding harness can both hold the world).
pub struct CorpusFetcher {
    corpus: std::sync::Arc<Corpus>,
}

impl CorpusFetcher {
    pub fn new(corpus: std::sync::Arc<Corpus>) -> CorpusFetcher {
        CorpusFetcher { corpus }
    }

    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }
}

impl PageFetcher for CorpusFetcher {
    fn fetch(&self, page: u32) -> Option<PageContent> {
        let p = self.corpus.pages.get(page as usize)?;
        Some(PageContent {
            title: p.title.clone(),
            text: p.text.clone(),
            links: self.corpus.graph.out_links(page).to_vec(),
            bytes: p.bytes,
        })
    }

    fn num_pages(&self) -> usize {
        self.corpus.num_pages()
    }
}

// ---------------------------------------------------------------------------
// Fault injection: flaky fetches + bounded retry
// ---------------------------------------------------------------------------

/// Tuning for a [`FlakyFetcher`]. Probabilities are per 10 000 attempts so
/// the schedule is integer-deterministic across platforms.
#[derive(Debug, Clone, Copy)]
pub struct FlakyConfig {
    pub seed: u64,
    /// Probability (per 10 000 attempts) of a transient failure.
    pub transient_per_10k: u32,
    /// Simulated base latency per attempt, in virtual milliseconds.
    pub latency_ms: u64,
    /// Additional seeded-random latency, `0..=jitter_ms`.
    pub latency_jitter_ms: u64,
}

impl Default for FlakyConfig {
    fn default() -> Self {
        FlakyConfig {
            seed: 0,
            transient_per_10k: 0,
            latency_ms: 20,
            latency_jitter_ms: 80,
        }
    }
}

#[derive(Default)]
struct FlakyState {
    /// Attempts seen per page — the fault decision is a pure function of
    /// `(seed, page, attempt)`, so outcomes do not depend on the order in
    /// which different pages are fetched.
    attempts: HashMap<u32, u32>,
    transient_failures: u64,
    simulated_latency_ms: u64,
}

/// Decorator over any [`PageFetcher`] that injects deterministic transient
/// failures and accrues simulated (virtual — never slept) latency.
pub struct FlakyFetcher<F> {
    inner: F,
    cfg: FlakyConfig,
    state: Mutex<FlakyState>,
}

impl<F: PageFetcher> FlakyFetcher<F> {
    pub fn new(inner: F, cfg: FlakyConfig) -> FlakyFetcher<F> {
        FlakyFetcher {
            inner,
            cfg,
            state: Mutex::new(FlakyState::default()),
        }
    }

    /// Transient failures injected so far.
    pub fn transient_failures(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .transient_failures
    }

    /// Total virtual latency accrued across all attempts (never slept).
    pub fn simulated_latency_ms(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .simulated_latency_ms
    }

    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: PageFetcher> PageFetcher for FlakyFetcher<F> {
    fn fetch(&self, page: u32) -> Option<PageContent> {
        self.try_fetch(page).ok()
    }

    fn try_fetch(&self, page: u32) -> Result<PageContent, FetchError> {
        let fail = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let attempt = s.attempts.entry(page).or_insert(0);
            *attempt += 1;
            let mut rng = SplitMix64::new(
                self.cfg
                    .seed
                    .wrapping_add(u64::from(page).wrapping_mul(0x9E37_79B9))
                    .wrapping_add(u64::from(*attempt) << 32),
            );
            let fail = self.cfg.transient_per_10k > 0
                && rng.next() % 10_000 < u64::from(self.cfg.transient_per_10k);
            let latency = self.cfg.latency_ms
                + if self.cfg.latency_jitter_ms > 0 {
                    rng.next() % (self.cfg.latency_jitter_ms + 1)
                } else {
                    0
                };
            s.simulated_latency_ms += latency;
            if fail {
                s.transient_failures += 1;
            }
            fail
        };
        if fail {
            return Err(FetchError::Transient {
                reason: format!("injected timeout on page {page}"),
            });
        }
        self.inner.try_fetch(page)
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }
}

/// Bounded retry with exponential backoff and deterministic jitter; all
/// time is virtual (the demon never sleeps in tests — the backoff values
/// only count against [`RetryPolicy::deadline_ms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per page (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in virtual milliseconds.
    pub base_backoff_ms: u64,
    /// Cap on a single backoff interval.
    pub max_backoff_ms: u64,
    /// Per-page budget of virtual time; once the accrued backoff crosses
    /// this, the page is abandoned even if attempts remain.
    pub deadline_ms: u64,
    /// Seed for the jitter, so schedules reproduce exactly.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
            deadline_ms: 10_000,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff to wait after failed attempt number `attempt` (1-based)
    /// for `page`: exponential growth capped at `max_backoff_ms`, with
    /// deterministic "equal jitter" — the interval lands in
    /// `[cap/2, cap]`, keyed on `(jitter_seed, page, attempt)`.
    pub fn backoff_ms(&self, page: u32, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(20);
        let cap = self
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms)
            .max(1);
        let half = cap / 2;
        let mut rng = SplitMix64::new(
            self.jitter_seed
                .wrapping_add(u64::from(page).wrapping_mul(0x517C_C1B7_2722_0A95))
                .wrapping_add(u64::from(attempt)),
        );
        half + rng.next() % (cap - half + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memex_web::corpus::CorpusConfig;

    #[test]
    fn corpus_fetcher_round_trip() {
        let corpus = Corpus::generate(CorpusConfig {
            num_topics: 2,
            pages_per_topic: 5,
            ..CorpusConfig::default()
        });
        let corpus = std::sync::Arc::new(corpus);
        let f = CorpusFetcher::new(corpus.clone());
        assert_eq!(f.num_pages(), 10);
        let c = f.fetch(3).expect("page 3 exists");
        assert_eq!(c.title, corpus.pages[3].title);
        assert_eq!(c.links, corpus.graph.out_links(3));
        assert!(f.fetch(999).is_none());
        assert_eq!(f.try_fetch(999).err(), Some(FetchError::NotFound));
    }

    fn small_corpus() -> std::sync::Arc<Corpus> {
        std::sync::Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 2,
            pages_per_topic: 10,
            ..CorpusConfig::default()
        }))
    }

    #[test]
    fn flaky_fetcher_is_deterministic_per_seed() {
        let outcomes = |seed: u64| {
            let f = FlakyFetcher::new(
                CorpusFetcher::new(small_corpus()),
                FlakyConfig {
                    seed,
                    transient_per_10k: 5_000,
                    ..FlakyConfig::default()
                },
            );
            let mut out = Vec::new();
            for page in 0..20u32 {
                for _ in 0..3 {
                    out.push(f.try_fetch(page).is_ok());
                }
            }
            (out, f.transient_failures(), f.simulated_latency_ms())
        };
        assert_eq!(outcomes(7), outcomes(7));
        let (o7, fails, latency) = outcomes(7);
        assert!(fails > 0, "50% schedule must fire over 60 attempts");
        assert!(latency > 0);
        assert_ne!(o7, outcomes(8).0, "different seed, different schedule");
    }

    #[test]
    fn flaky_fetcher_distinguishes_transient_from_not_found() {
        let f = FlakyFetcher::new(
            CorpusFetcher::new(small_corpus()),
            FlakyConfig {
                seed: 1,
                transient_per_10k: 10_000, // always fail
                ..FlakyConfig::default()
            },
        );
        assert!(matches!(f.try_fetch(0), Err(FetchError::Transient { .. })));
        let ok = FlakyFetcher::new(CorpusFetcher::new(small_corpus()), FlakyConfig::default());
        assert!(ok.try_fetch(0).is_ok(), "0% schedule never fails");
        assert_eq!(ok.try_fetch(9_999).err(), Some(FetchError::NotFound));
    }

    #[test]
    fn retry_backoff_grows_caps_and_reproduces() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 100,
            max_backoff_ms: 1_000,
            deadline_ms: 60_000,
            jitter_seed: 3,
        };
        for attempt in 1..8 {
            let b = p.backoff_ms(5, attempt);
            let cap = (100u64 << (attempt - 1)).min(1_000);
            assert!(
                b >= cap / 2 && b <= cap,
                "attempt {attempt}: {b} not in [{}, {cap}]",
                cap / 2
            );
            assert_eq!(b, p.backoff_ms(5, attempt), "jitter must reproduce");
        }
        assert_ne!(
            (1..8).map(|a| p.backoff_ms(1, a)).collect::<Vec<_>>(),
            (1..8).map(|a| p.backoff_ms(2, a)).collect::<Vec<_>>(),
            "different pages jitter differently"
        );
    }
}
