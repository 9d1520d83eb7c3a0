//! Model-based testing of the Stream-Summary: drive the real O(1)
//! bucket-list implementation and a trivially-correct map model through
//! the same randomized operation sequences and require the observable
//! state to agree exactly after every step, tie order included.
//!
//! Which of several equal-count keys `evict_min` takes decides which
//! flow HeavyKeeper's store drops, so ties are not left open. The model
//! gives each key a stamp from a clock, renewed whenever the real
//! structure re-attaches the key: every `insert`, every `increment`, and
//! a `set_count` that changes the count. Among equal counts the newest
//! stamp comes first in `iter_desc()`, and `evict_min` takes the newest
//! stamp of the minimum count.

use hk_common::stream_summary::StreamSummary;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Insert key with count (only if absent and not full).
    Insert(u8, u64),
    /// Increment key by amount (if present).
    Increment(u8, u64),
    /// Set key's count, up or down (if present).
    SetCount(u8, u64),
    /// Raise a key that is alone at its count by 1 (the n-th such key,
    /// modulo how many there are).
    RaiseLone(u8),
    /// Raise one tracked key onto the count of a larger one (the n-th
    /// and m-th tracked keys, modulo how many there are).
    RaiseOnto(u8, u8),
    /// Evict one minimum entry.
    EvictMin,
    /// Remove key (if present).
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), 1u64..100).prop_map(|(k, c)| Op::Insert(k, c)),
        3 => (any::<u8>(), 1u64..50).prop_map(|(k, c)| Op::Increment(k, c)),
        2 => (any::<u8>(), 1u64..200).prop_map(|(k, c)| Op::SetCount(k, c)),
        3 => any::<u8>().prop_map(Op::RaiseLone),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::RaiseOnto(a, b)),
        1 => Just(Op::EvictMin),
        1 => any::<u8>().prop_map(Op::Remove),
    ]
}

/// `key → (count, stamp)`, and the clock the stamps come from.
#[derive(Default)]
struct Model {
    entries: BTreeMap<u8, (u64, u64)>,
    clock: u64,
}

impl Model {
    /// Records that the real structure (re-)attached `key` at `count`.
    fn attach(&mut self, key: u8, count: u64) {
        self.clock += 1;
        self.entries.insert(key, (count, self.clock));
    }

    fn count(&self, key: u8) -> Option<u64> {
        self.entries.get(&key).map(|&(c, _)| c)
    }

    /// Every entry in the order `iter_desc` must yield: count
    /// descending, newest stamp first among equal counts.
    fn desc(&self) -> Vec<(u8, u64)> {
        let mut v: Vec<(u8, u64, u64)> =
            self.entries.iter().map(|(&k, &(c, s))| (k, c, s)).collect();
        v.sort_unstable_by_key(|&(_, c, s)| std::cmp::Reverse((c, s)));
        v.into_iter().map(|(k, c, _)| (k, c)).collect()
    }

    /// The entry `evict_min` must take: the newest stamp among the
    /// minimum count, which `iter_desc` yields first of that count.
    fn victim(&self) -> Option<(u8, u64)> {
        let desc = self.desc();
        let min = desc.last()?.1;
        desc.into_iter().find(|&(_, c)| c == min)
    }

    /// The keys whose count no other key shares.
    fn lone_keys(&self) -> Vec<u8> {
        let shared = |c: u64| self.entries.values().filter(|&&(o, _)| o == c).count() > 1;
        self.entries
            .iter()
            .filter(|(_, &(c, _))| !shared(c))
            .map(|(&k, _)| k)
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stream_summary_agrees_with_hashmap_model(
        ops in prop::collection::vec(op_strategy(), 1..400),
        capacity in 1usize..24,
    ) {
        let mut real = StreamSummary::<u8>::new(capacity);
        let mut model = Model::default();

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(k, c) => {
                    if model.count(k).is_none() && model.entries.len() < capacity {
                        prop_assert!(real.insert(k, c), "step {}: insert rejected", step);
                        model.attach(k, c);
                    }
                }
                Op::Increment(k, by) => {
                    let expect = model.count(k).map(|c| c + by);
                    prop_assert_eq!(real.increment(&k, by), expect, "step {}", step);
                    if let Some(c) = expect {
                        model.attach(k, c);
                    }
                }
                Op::SetCount(k, c) => {
                    let old = model.count(k);
                    prop_assert_eq!(real.set_count(&k, c), old, "step {}", step);
                    if old.is_some_and(|o| o != c) {
                        model.attach(k, c);
                    }
                }
                Op::RaiseLone(n) => {
                    let lone = model.lone_keys();
                    if !lone.is_empty() {
                        let k = lone[n as usize % lone.len()];
                        let c = model.count(k).unwrap() + 1;
                        prop_assert_eq!(real.increment(&k, 1), Some(c), "step {}", step);
                        model.attach(k, c);
                    }
                }
                Op::RaiseOnto(a, b) => {
                    let keys: Vec<u8> = model.entries.keys().copied().collect();
                    if !keys.is_empty() {
                        let (ka, kb) = (keys[a as usize % keys.len()], keys[b as usize % keys.len()]);
                        let (ca, cb) = (model.count(ka).unwrap(), model.count(kb).unwrap());
                        if ca < cb {
                            prop_assert_eq!(real.increment(&ka, cb - ca), Some(cb), "step {}", step);
                            model.attach(ka, cb);
                        }
                    }
                }
                Op::EvictMin => {
                    let expect = model.victim();
                    prop_assert_eq!(real.evict_min(), expect, "step {}: evict_min victim", step);
                    if let Some((k, _)) = expect {
                        model.entries.remove(&k);
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(real.remove(&k), model.count(k), "step {}", step);
                    model.entries.remove(&k);
                }
            }

            // The whole observable state, tie order included.
            real.check_invariants();
            let got: Vec<(u8, u64)> = real.iter_desc().map(|(&k, c)| (k, c)).collect();
            prop_assert_eq!(got, model.desc(), "step {}: iter_desc", step);
            prop_assert_eq!(real.len(), model.entries.len(), "step {}", step);
            prop_assert_eq!(real.min_count(), model.desc().last().map(|&(_, c)| c), "step {}", step);
            prop_assert_eq!(real.max_count(), model.desc().first().map(|&(_, c)| c), "step {}", step);
        }
    }

    #[test]
    fn top_k_is_the_models_largest(
        entries in prop::collection::hash_map(any::<u8>(), 1u64..1000, 1..30),
        k in 1usize..10,
    ) {
        let mut real = StreamSummary::<u8>::new(entries.len());
        for (&key, &c) in &entries {
            real.insert(key, c);
        }
        let top = real.top_k(k);
        let mut expect: Vec<u64> = entries.values().copied().collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(k);
        let got: Vec<u64> = top.iter().map(|&(_, c)| c).collect();
        prop_assert_eq!(got, expect);
    }
}
