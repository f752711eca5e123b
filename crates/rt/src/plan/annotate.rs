//! Node annotations: the lazily built bottom-up deterministic automaton
//! an item lowers its input through.
//!
//! A node's *annotation* is everything evaluation needs to know of the
//! node that depends on its constructor, its label and its children's
//! annotations alone:
//! - the lookahead STA's states that accept it;
//! - for each transformation state `q`, the rules of `q` enabled at it
//!   (guard and lookahead hold), in dispatch order;
//! - the states that *copy* it, `T_q(node) = {node}` ([`is_copy_rule`]).
//!
//! Annotations are the states of the subset construction of the
//! lookahead STA (as in `fast_automata::bottomup`), refined by which
//! rules are enabled and which states copy. [`Annotations`] builds them
//! lazily, for the keys `(constructor, label, child annotations)` one
//! item's input reaches, as a lazy DFA builds its states. A key seen
//! before costs one hash and one probe. A new key decides the
//! constructor's guards once per distinct `(constructor, label)` pair
//! of the item, then tests each rule against the guard bits and the
//! children's lookahead states. Annotations are canonical by value: two
//! different subtrees with the same accepting states, enabled rules and
//! copying states get the same id, so their parents' keys agree too.
//!
//! [`is_copy_rule`]: super::is_copy_rule

use super::{Plan, Select, NONE};
use crate::memo::{MixHasher, MixMap};
use fast_automata::StateId;
use fast_core::Out;
use fast_smt::BoolAlg;
use fast_trees::{LabelId, Tree};
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::ops::Range;

/// Bit of a row entry marking a state that copies the node.
const COPY: u32 = 1 << 31;

/// Words of a key before the child annotations: the constructor and
/// the two halves of the label id.
const KEY_HEAD: usize = 3;

/// One item's annotation table; see the module docs.
pub(super) struct Annotations {
    /// Width in 32-bit words of a lookahead state set.
    la_words: usize,
    /// Transformation states of the plan.
    states: usize,
    /// Every annotation, back to back; an annotation's id is its
    /// offset. One annotation is its lookahead state set (`la_words`
    /// words, state `s` is bit `s % 32` of word `s / 32`), then one row
    /// entry per state and one more, then the rule lists. Row entry `q`
    /// is where `q`'s list starts, counted from the first list, with
    /// [`COPY`] set when `q` copies the node; entry `states` ends the
    /// last list. A list holds indices into its state's rules.
    arena: Vec<u32>,
    /// Annotation ids by value.
    values: Probe,
    /// Key records: the annotation, then the key.
    keys: Vec<u32>,
    /// Key record offsets by key.
    by_key: Probe,
    /// The key being looked up: constructor, label id, child
    /// annotations.
    key: Vec<u32>,
    /// The annotation being built for a key that missed.
    value: Vec<u32>,
    /// Per `(constructor, label)`, the offset of its guard bits in
    /// `guard_bits`: bit `i` is set when guard `i` of the constructor's
    /// list ([`Plan::ctor_guards`]) holds of the label.
    decided: MixMap<(usize, LabelId), u32>,
    guard_bits: Vec<u64>,
    /// Distinct annotations built.
    pub(super) built: u64,
    /// Guard formulas evaluated.
    pub(super) guard_evals: u64,
}

impl Annotations {
    pub(super) fn new(plan: &Plan) -> Annotations {
        Annotations {
            la_words: plan.sttr.lookahead_sta().state_count().div_ceil(32),
            states: plan.sttr.state_count(),
            arena: Vec::new(),
            values: Probe::default(),
            keys: Vec::new(),
            by_key: Probe::default(),
            key: Vec::new(),
            value: Vec::new(),
            decided: MixMap::default(),
            guard_bits: Vec::new(),
            built: 0,
            guard_evals: 0,
        }
    }

    /// The annotation of `node`, whose children have the annotations
    /// `kids`: found by its key, or built and recorded under it.
    pub(super) fn annotate(
        &mut self,
        plan: &Plan,
        node: &Tree,
        kids: impl Iterator<Item = u32>,
    ) -> u32 {
        let label = node.label_id().as_u64();
        self.key.clear();
        self.key
            .extend([node.ctor().0 as u32, label as u32, (label >> 32) as u32]);
        self.key.extend(kids);
        let hash = hash(&self.key);
        let (keys, key) = (&self.keys, &self.key);
        let found = self.by_key.find(hash, |at| {
            let at = at as usize + 1;
            keys.get(at..at + key.len()) == Some(key)
        });
        if let Some(at) = found {
            return self.keys[at as usize];
        }
        let ann = self.build(plan, node);
        self.by_key.insert(hash, offset(self.keys.len()));
        self.keys.push(ann);
        self.keys.extend_from_slice(&self.key);
        ann
    }

    /// Builds the annotation of the key in `self.key` (for `node`) and
    /// returns its canonical id.
    fn build(&mut self, plan: &Plan, node: &Tree) -> u32 {
        let ctor = node.ctor().0;
        let g = self.guard_bits(plan, node);
        let Annotations {
            la_words,
            states,
            arena,
            key,
            value,
            guard_bits,
            ..
        } = self;
        let (la_words, states, arena, key) = (*la_words, *states, &*arena, &*key);
        let bits = &guard_bits[g..];
        // Whether a rule with enabler `sel` and per-child lookahead
        // sets `sets` is enabled at the node.
        let holds = |sel: Select, sets: &[BTreeSet<StateId>]| {
            let guard = sel.guard as usize;
            (sel.trivial_guard || bits[guard / 64] >> (guard % 64) & 1 == 1)
                && sets.iter().enumerate().all(|(i, set)| {
                    let kid = key[KEY_HEAD + i] as usize;
                    set.iter()
                        .all(|s| arena[kid + s.0 / 32] >> (s.0 % 32) & 1 == 1)
                })
        };
        value.clear();
        value.resize(la_words, 0);
        let la = plan.sttr.lookahead_sta();
        for lr in plan.la_group(ctor) {
            let (word, bit) = (lr.state as usize / 32, 1 << (lr.state % 32));
            let rule = &la.rules(StateId(lr.state as usize))[lr.idx as usize];
            if value[word] & bit == 0 && holds(lr.sel, &rule.lookahead) {
                value[word] |= bit;
            }
        }
        let lists = la_words + states + 1;
        value.resize(lists, 0);
        for q in 0..states {
            let start = value.len() - lists;
            let mut copy = None;
            for cr in plan.group(q, ctor) {
                let rule = &plan.sttr.rules(StateId(q))[cr.idx as usize];
                if holds(cr.sel, &rule.lookahead) {
                    value.push(cr.idx);
                    copy = cr.copy.then_some(rule);
                }
            }
            // `q` copies the node when its one enabled rule is a copy
            // rule whose callee `q_i` copies child `i`. Then `T_q(node)
            // = {node}` by induction, and every pair below yields one
            // tree before deduplication, so `Sttr::run_bounded` fails
            // there only at cap 0, as the copied pair does. (Two enabled
            // copy rules also give `{node}`, but `run_bounded` counts
            // both outputs against the cap, so they are evaluated, not
            // copied.)
            let copies = value.len() - lists == start + 1
                && copy.is_some_and(|rule| {
                    let Out::Node { children, .. } = &rule.output else {
                        return false;
                    };
                    children.iter().enumerate().all(|(i, c)| {
                        let kid = key[KEY_HEAD + i] as usize;
                        matches!(c, Out::Call(qi, _) if arena[kid + la_words + qi.0] & COPY != 0)
                    })
                });
            value[la_words + q] = offset(start) | if copies { COPY } else { 0 };
        }
        value[la_words + states] = offset(value.len() - lists);
        let hash = hash(value);
        let found = self.values.find(hash, |at| {
            let at = at as usize;
            arena.get(at..at + value.len()) == Some(&value[..])
        });
        if let Some(ann) = found {
            return ann;
        }
        let ann = offset(self.arena.len());
        self.arena.extend_from_slice(&self.value);
        self.values.insert(hash, ann);
        self.built += 1;
        ann
    }

    /// The offset of the guard bits of `node`'s constructor and label,
    /// deciding them at the first node with that pair.
    fn guard_bits(&mut self, plan: &Plan, node: &Tree) -> usize {
        let ctor = node.ctor().0;
        let guards = plan.ctor_guards(ctor);
        if guards.is_empty() {
            return 0;
        }
        match self.decided.entry((ctor, node.label_id())) {
            Entry::Occupied(first) => *first.get() as usize,
            Entry::Vacant(first) => {
                let g = self.guard_bits.len();
                first.insert(offset(g));
                self.guard_bits.resize(g + guards.len().div_ceil(64), 0);
                self.guard_evals += guards.len() as u64;
                let alg = plan.sttr.alg();
                for (i, f) in guards.iter().enumerate() {
                    if alg.eval(f, node.label()) {
                        self.guard_bits[g + i / 64] |= 1 << (i % 64);
                    }
                }
                g
            }
        }
    }

    /// Whether state `q` copies the nodes annotated `ann`.
    #[inline]
    pub(super) fn copies(&self, ann: u32, q: usize) -> bool {
        self.arena[ann as usize + self.la_words + q] & COPY != 0
    }

    /// Where the enabled rules of state `q` at the nodes annotated
    /// `ann` lie: read each with [`Annotations::rule`].
    #[inline]
    pub(super) fn rules(&self, ann: u32, q: usize) -> Range<usize> {
        let row = ann as usize + self.la_words;
        let lists = row + self.states + 1;
        let start = (self.arena[row + q] & !COPY) as usize;
        let end = (self.arena[row + q + 1] & !COPY) as usize;
        lists + start..lists + end
    }

    /// The rule index at `at`, a position [`Annotations::rules`] gave.
    #[inline]
    pub(super) fn rule(&self, at: usize) -> u32 {
        self.arena[at]
    }
}

/// `n` as an offset into an annotation table. The tables stay under
/// 2^31 words, so an offset leaves [`COPY`] clear and is never
/// [`NONE`].
fn offset(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&n| n < COPY)
        .expect("annotation tables stay under 2^31 words")
}

/// One multiply-mix hash over every word of `words`.
fn hash(words: &[u32]) -> u64 {
    let mut h = MixHasher::default();
    for &w in words {
        h.write_u64(u64::from(w));
    }
    h.finish()
}

/// An open-addressing set of `u32` handles by 64-bit hash: linear
/// probing, at most half full. The caller's predicate tells which
/// handle with a given hash is the one sought, so keys of any length
/// live outside the table and a probe allocates nothing.
#[derive(Default)]
struct Probe {
    /// `(hash, handle)`, or `(_, NONE)` where empty; a power of two
    /// long.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl Probe {
    /// Where probing for `hash` starts. The hash ends in a multiply,
    /// so its high bits mix every input bit.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.slots.len() - 1)
    }

    /// The handle with hash `hash` that `is` accepts.
    #[inline]
    fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(hash);
        loop {
            let (h, at) = self.slots[i];
            if at == NONE {
                return None;
            }
            if h == hash && is(at) {
                return Some(at);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// Adds `at` under `hash`; the caller has found no equal handle.
    fn insert(&mut self, hash: u64, at: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let size = (2 * self.slots.len()).max(16);
            for (h, a) in std::mem::replace(&mut self.slots, vec![(0, NONE); size]) {
                if a != NONE {
                    self.place(h, a);
                }
            }
        }
        self.place(hash, at);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, at: u32) {
        let mut i = self.home(hash);
        while self.slots[i].1 != NONE {
            i = (i + 1) & (self.slots.len() - 1);
        }
        self.slots[i] = (hash, at);
    }
}
