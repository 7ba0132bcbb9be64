//! Seeded corpus generation and the reference results the fleet's
//! outputs are checked against. The fleet only ever sees the records;
//! the seed, the vocabulary and the expected rows stay in the driver.

use crate::spec::{PARTITIONS, WORKERS};
use pangea::cluster::PartitionScheme;
use pangea::common::fx_hash64;
use std::collections::HashMap;

/// SplitMix64: small, seedable, and good enough to draw a corpus from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Records packed back to back, so a million of them cost one
/// allocation and not a million.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Corpus {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Corpus {
    fn push(&mut self, record: &[u8]) {
        self.bytes.extend_from_slice(record);
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Payload bytes over all records.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    pub fn record(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.record(i))
    }

    /// The first `n` records as a corpus of their own (the warm-up and
    /// single-worker inputs).
    pub fn prefix(&self, n: usize) -> Corpus {
        let n = n.min(self.len());
        let end = if n == 0 { 0 } else { self.ends[n - 1] };
        Corpus {
            bytes: self.bytes[..end].to_vec(),
            ends: self.ends[..n].to_vec(),
        }
    }
}

/// An order-independent digest of a multiset of records: how many, and
/// the wrapping sum of their `fx_hash64`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    pub count: u64,
    pub sum: u64,
}

impl Checksum {
    pub fn add(&mut self, record: &[u8]) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(fx_hash64(record));
    }

    pub fn of<'a>(records: impl Iterator<Item = &'a [u8]>) -> Self {
        let mut c = Self::default();
        records.for_each(|r| c.add(r));
        c
    }
}

/// Exact `word -> count` rows of a wordcount over a corpus.
pub type Counts = HashMap<Vec<u8>, u64>;

/// The share of tokens that word `rank` gets from [`zipf_lines`], up to
/// a constant factor.
fn zipf_weight(rank: usize) -> f64 {
    ((rank + 2) as f64 / (rank + 1) as f64).ln()
}

/// The seed-dependent vocabulary: word `rank` is three letters drawn
/// from the seed plus the rank. Each word goes to the worker that holds
/// the least zipf weight so far, and its letters are redrawn until the
/// program's own word routing puts it there, so every seed loads the
/// workers alike: left to chance, the share of the busiest worker, and
/// with it the job time of `shuffle-wide`, moved by a factor of 1.8
/// from seed to seed.
fn vocabulary(seed: u64, words: usize) -> Vec<Vec<u8>> {
    let routing = PartitionScheme::hash_whole("word", PARTITIONS);
    let mut rng = Rng::new(seed ^ 0x0076_6F63_6162);
    let mut held = [0.0f64; WORKERS as usize];
    (0..words)
        .map(|rank| {
            let lightest = (0..held.len())
                .min_by(|a, b| held[*a].total_cmp(&held[*b]))
                .expect("the fleet has workers");
            held[lightest] += zipf_weight(rank);
            loop {
                let mut w: Vec<u8> = (0..3).map(|_| b'a' + rng.below(26) as u8).collect();
                w.extend_from_slice(rank.to_string().as_bytes());
                if routing.node_of(&w, 0, WORKERS).0 as usize == lightest {
                    return w;
                }
            }
        })
        .collect()
}

/// `lines` lines of `tokens` space-separated words over a `vocab`-word
/// vocabulary with zipf-like frequencies: rank `floor(vocab^u) - 1` for
/// uniform `u` has probability proportional to `ln((k+2)/(k+1))`, so a
/// few words carry most tokens — combining has real work to do.
pub fn zipf_lines(seed: u64, lines: usize, tokens: usize, vocab: usize) -> (Corpus, Counts) {
    let words = vocabulary(seed, vocab);
    let mut tally = vec![0u64; vocab];
    let mut rng = Rng::new(seed);
    let mut corpus = Corpus::default();
    let mut line = Vec::with_capacity(tokens * 8);
    for _ in 0..lines {
        line.clear();
        for t in 0..tokens {
            let rank = ((vocab as f64).powf(rng.next_f64()) as usize - 1).min(vocab - 1);
            tally[rank] += 1;
            if t > 0 {
                line.push(b' ');
            }
            line.extend_from_slice(&words[rank]);
        }
        corpus.push(&line);
    }
    let counts = words
        .into_iter()
        .zip(tally)
        .filter(|(_, n)| *n > 0)
        .collect();
    (corpus, counts)
}

/// `lines` lines of four tokens that occur nowhere else plus two drawn
/// from a 13-word common pool: about `4 * lines` distinct keys, so the
/// keyed state of a wordcount grows with the input.
pub fn unique_lines(seed: u64, lines: usize) -> (Corpus, Counts) {
    let common = vocabulary(seed, 13);
    let salt = Rng::new(seed).below(1 << 20);
    let mut rng = Rng::new(seed.wrapping_add(1));
    let mut corpus = Corpus::default();
    let mut counts: Counts = HashMap::with_capacity(lines * 4 + common.len());
    for i in 0..lines {
        let (a, b) = (rng.below(13) as usize, rng.below(13) as usize);
        let uniques: Vec<String> = (0..4)
            .map(|j| format!("u{salt:05x}{:07}", i * 4 + j))
            .collect();
        let line = format!(
            "{} {} {} {} {} {}",
            String::from_utf8_lossy(&common[a]),
            uniques[0],
            uniques[1],
            uniques[2],
            uniques[3],
            String::from_utf8_lossy(&common[b]),
        );
        corpus.push(line.as_bytes());
        for u in uniques {
            counts.insert(u.into_bytes(), 1);
        }
        *counts.entry(common[a].clone()).or_default() += 1;
        *counts.entry(common[b].clone()).or_default() += 1;
    }
    (corpus, counts)
}

/// `records` distinct `key|event|pad` records of about 60 bytes: the
/// key is unique (recovery dedups by content), the event is one of 64
/// (the replica's partitioning key), the pad is seed-dependent filler.
pub fn event_records(seed: u64, records: usize) -> Corpus {
    let mut rng = Rng::new(seed);
    let salt = rng.below(1 << 20);
    let mut corpus = Corpus::default();
    for i in 0..records {
        let pad = rng.next_u64();
        let rec = format!(
            "k{salt:05x}{i:08}|e{:02}|{pad:016x}{:016x}{:08x}",
            rng.below(64),
            pad.rotate_left(17) ^ i as u64,
            (pad >> 7) as u32,
        );
        corpus.push(rec.as_bytes());
    }
    corpus
}

fn tokens(corpus: &Corpus) -> impl Iterator<Item = &[u8]> {
    corpus
        .records()
        .flat_map(|r| r.split(|&b| b == b' ').filter(|t| !t.is_empty()))
}

/// The wordcount of a corpus by the driver's own tokenizer.
pub fn count_tokens(corpus: &Corpus) -> Counts {
    let mut counts = Counts::new();
    for tok in tokens(corpus) {
        match counts.get_mut(tok) {
            Some(n) => *n += 1,
            None => {
                counts.insert(tok.to_vec(), 1);
            }
        }
    }
    counts
}

/// Every space-separated token of every record, digested: what a
/// map-only tokenize must materialize.
pub fn token_checksum(corpus: &Corpus) -> Checksum {
    Checksum::of(tokens(corpus))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_corpus_and_another_seed_another() {
        let (a, ca) = zipf_lines(7, 500, 8, 100);
        let (b, cb) = zipf_lines(7, 500, 8, 100);
        let (c, _) = zipf_lines(8, 500, 8, 100);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert_ne!(a, c);
        assert_eq!(unique_lines(3, 200), unique_lines(3, 200));
        assert_ne!(unique_lines(3, 200).0, unique_lines(4, 200).0);
        assert_eq!(event_records(5, 300), event_records(5, 300));
        assert_ne!(event_records(5, 300), event_records(6, 300));
    }

    #[test]
    fn counts_are_the_wordcount_of_the_corpus() {
        for (corpus, counts) in [zipf_lines(11, 400, 8, 50), unique_lines(11, 400)] {
            assert_eq!(count_tokens(&corpus), counts);
            assert_eq!(token_checksum(&corpus).count, counts.values().sum::<u64>());
        }
    }

    #[test]
    fn zipf_lines_are_skewed_and_have_the_asked_shape() {
        let (corpus, counts) = zipf_lines(1, 2000, 8, 1000);
        assert_eq!(corpus.len(), 2000);
        assert!(corpus
            .records()
            .all(|r| r.split(|&b| b == b' ').count() == 8));
        let mut by_count: Vec<u64> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = by_count[..10].iter().sum();
        assert!(
            top10 * 100 > 16_000 * 25,
            "top 10 words hold {top10} of 16000 tokens"
        );
    }

    #[test]
    fn every_seed_spreads_the_tokens_evenly_over_the_workers() {
        let routing = PartitionScheme::hash_whole("word", PARTITIONS);
        for seed in [1, 4, 9] {
            let (_, counts) = zipf_lines(seed, 20_000, 8, 1000);
            let mut per_worker = [0u64; WORKERS as usize];
            for (word, n) in &counts {
                per_worker[routing.node_of(word, 0, WORKERS).0 as usize] += n;
            }
            let (min, max) = (
                per_worker.iter().min().unwrap(),
                per_worker.iter().max().unwrap(),
            );
            assert!(
                max * 100 < min * 105,
                "seed {seed}: tokens per worker {per_worker:?}"
            );
        }
    }

    #[test]
    fn unique_lines_have_four_keys_per_line_and_event_records_are_distinct() {
        let (corpus, counts) = unique_lines(9, 1000);
        assert_eq!(corpus.len(), 1000);
        assert!(counts.len() >= 4000 && counts.len() <= 4013);
        let events = event_records(9, 1000);
        let distinct: std::collections::HashSet<&[u8]> = events.records().collect();
        assert_eq!(distinct.len(), 1000);
        assert!(events
            .records()
            .all(|r| r.split(|&b| b == b'|').count() == 3));
        let mean = events.total_bytes() / events.len();
        assert!((55..=70).contains(&mean), "mean record is {mean} B");
    }

    #[test]
    fn prefix_and_checksum_agree_with_the_records() {
        let corpus = event_records(2, 100);
        let head = corpus.prefix(10);
        assert_eq!(head.len(), 10);
        assert!(head.records().zip(corpus.records()).all(|(a, b)| a == b));
        let mut forward = Checksum::default();
        corpus.records().for_each(|r| forward.add(r));
        let mut backward = Checksum::default();
        (0..corpus.len())
            .rev()
            .for_each(|i| backward.add(corpus.record(i)));
        assert_eq!(forward, backward);
        assert_eq!(forward.count, 100);
    }
}
