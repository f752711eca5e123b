//! # fast-analysis — semantic lint and contract typechecking
//!
//! Runs a battery of decidable semantic checks over a compiled Fast
//! program (the paper's §4 side conditions and the §5.4 analyses),
//! returning a list of severity/code-tagged, span-carrying
//! [`Diagnostic`]s. The `fastc check` CLI mode is the user-facing front
//! end.
//!
//! ## Diagnostic codes
//!
//! | code | severity | meaning |
//! |---|---|---|
//! | `FA001` | warning | dead rule: guard unsatisfiable, or lookahead languages have no common tree |
//! | `FA002` | warning | overlapping guards on the same `(state, constructor)` with different outputs — breaks determinism (Definition 9) and hence the left-composability side condition of Theorem 4 |
//! | `FA003` | warning | non-exhaustive match: the disjunction of a constructor's guards is not valid; the witness label from the solver model is reported |
//! | `FA004` | warning | a `lang` accepts no trees, a `trans` has an empty domain, or transducer states are unreachable from the initial state |
//! | `FA005` | warning | vacuous lookahead: a `given` clause names a language that accepts *every* tree |
//! | `FA006` | warning | pipeline boundary not fusable: in a `(compose S T)`, `S` is not single-valued **and** `T` is not linear, so the composed transducer over-approximates `T_T ∘ T_S` (Theorem 4); the FA007 verdict for `S` and the witness rule of `T` are reported |
//! | `FA007` | warning | not single-valued (semantic): a concrete, run-verified input produces ≥ 2 distinct outputs, so the transformation can never be the left factor of an exact composition (Theorem 4) and pipelines cascade at its boundaries |
//! | `FA100` | error | contract violation: for `trans f : L1 -> L2` over languages, `L(L1) ∩ preimage(f, ¬L(L2)) ≠ ∅`; a concrete counterexample input tree and its replayed output are reported (a warning when the contract is neither proved nor refuted) |
//! | `FA101` | error | pipeline contract violation: for a `def` chain `t1; …; tn : L1 -> L2`, iterated pre-images prove some input in `L1` reaches an output outside `L2`; the counterexample is replayed forward through the actual stages and the offending stage's concrete bad intermediate is reported (a warning when the contract is neither proved nor refuted) |
//!
//! Contract checking is the pre-image-based typechecking recipe:
//! backward application of the transducer to the complement of the
//! output language, intersected with the input language — exact for
//! this class because pre-images of STTRs are regular. Both codes decide
//! through one procedure, [`check_pipeline`] (defined in [`fast_core`]
//! and re-exported here with [`PipelineOutcome`] and
//! [`PipelineViolation`]).
//!
//! When a `def` body is a pure `(compose …)` chain of named stages, its
//! contract is checked as that chain (`FA101`): the bad-output language
//! `¬L2` is pulled backward one stage at a time (`Bn = preimage(tn,
//! ¬L2)`, `Bi = preimage(ti, Bi+1)`) and the contract is violated iff
//! `L(L1) ∩ B1 ≠ ∅`. The stage-wise pre-images stay exact where checking
//! the eagerly composed product could over-approximate (Theorem 4), and
//! the violation witness is replayed forward through the real stages to
//! locate the first one whose concrete intermediate can no longer reach
//! a good final output. Every other contract is the one-stage chain of
//! its transformation (`FA100`). A contract is reported satisfied only
//! when the offending language is proved empty and violated only with a
//! replayed counterexample; anything else is a warning under the same
//! code. `fastc check` exits 2 on `FA100`/`FA101` errors and 1 on
//! warnings under `--deny-warnings`.
//!
//! ## Telemetry
//!
//! The analyzer records `analysis.rules_checked`,
//! `analysis.solver_calls`, and `analysis.diags_emitted` counters plus
//! one `analysis.check.faXXX` latency histogram per check through
//! [`fast_obs`].
//!
//! # Examples
//!
//! ```
//! let src = r#"
//!     type T[i: Int] { z(0), s(1) }
//!     trans f: T -> T {
//!       z() where (i < 0 and i > 0) to (z [i])
//!     | s(x) where (i > 0) to (s [i] (f x))
//!     }
//! "#;
//! let program = fast_lang::parse(src).unwrap();
//! let mut sink = fast_lang::DiagSink::new();
//! let compiled = fast_lang::compile_ast(&program, &mut sink).unwrap();
//! let diags = fast_analysis::analyze(&program, &compiled);
//! let codes: Vec<_> = diags.iter().filter_map(|d| d.code).collect();
//! assert!(codes.contains(&"FA001")); // z-rule guard is unsatisfiable
//! assert!(codes.contains(&"FA003")); // s-rules don't cover i <= 0
//! ```

#![warn(missing_docs)]

use fast_automata::{is_empty, is_empty_at, is_universal, Sta, StateId};
pub use fast_core::{check_pipeline, PipelineOutcome, PipelineViolation};
use fast_core::{compose_exactness, Exactness, Out, Sttr, SvBudget, SvVerdict};
use fast_json::Json;
use fast_lang::{
    Compiled, Contract, Decl, DefTransDecl, Diagnostic, LangDecl, LangRule, Program, TExpr,
    TransDecl,
};
use fast_obs::count;
use fast_smt::{BoolAlg, Formula, Label, LabelAlg, LabelSig, TransAlg};
use fast_trees::TreeType;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Runs every check over a compiled program and returns the findings,
/// ordered by source position.
///
/// The `program` AST supplies the spans and the rule/declaration
/// structure; `compiled` supplies the lowered automata and transducers.
/// The two must come from the same source (as produced by
/// [`fast_lang::compile_ast`]).
pub fn analyze(program: &Program, compiled: &Compiled) -> Vec<Diagnostic> {
    let mut a = Analyzer {
        compiled,
        diags: Vec::new(),
        universal: HashMap::new(),
        vacuous_reported: BTreeSet::new(),
        chains: HashMap::new(),
    };
    for d in &program.decls {
        match d {
            Decl::Lang(l) => a.check_lang(l),
            Decl::Trans(t) => a.check_trans(t),
            Decl::DefTrans(dt) => a.check_deftrans(dt),
            _ => {}
        }
    }
    fast_obs::time!("analysis.check.fa100", || a.check_contracts());
    a.diags.sort_by_key(|d| {
        (
            d.span.start.line,
            d.span.start.col,
            d.code.unwrap_or_default(),
        )
    });
    count!("analysis.diags_emitted", a.diags.len() as u64);
    a.diags
}

/// Decides whether `guards` jointly cover every label: is the
/// disjunction valid? When it is not, returns a witness label (from the
/// solver model of the negated disjunction) that evades every guard.
///
/// This is FA003's core, exposed for property testing against
/// brute-force evaluation.
pub fn guards_exhaustive(alg: &LabelAlg, guards: &[Formula]) -> (bool, Option<Label>) {
    let preds: Vec<<LabelAlg as BoolAlg>::Pred> = guards.iter().map(|g| g.clone().into()).collect();
    let disj = alg.disj(preds.iter());
    let uncovered = alg.not(&disj);
    count!("analysis.solver_calls");
    if alg.is_sat(&uncovered) {
        count!("analysis.solver_calls");
        (false, alg.model(&uncovered))
    } else {
        (true, None)
    }
}

/// Renders diagnostics as a machine-readable JSON object:
///
/// ```json
/// {"file":"p.fast","errors":1,"warnings":2,"diagnostics":[
///   {"severity":"error","code":"FA100","line":9,"col":1,
///    "message":"…","labels":[…],"notes":["…"]}]}
/// ```
pub fn diagnostics_to_json(file: &str, diags: &[Diagnostic]) -> Json {
    let items: Vec<Json> = diags
        .iter()
        .map(|d| {
            let labels: Vec<Json> = d
                .labels
                .iter()
                .map(|l| {
                    Json::obj([
                        ("line", Json::Int(l.span.start.line as i64)),
                        ("col", Json::Int(l.span.start.col as i64)),
                        ("message", Json::Str(l.message.clone())),
                    ])
                })
                .collect();
            let notes: Vec<Json> = d.notes.iter().map(|n| Json::Str(n.clone())).collect();
            Json::obj([
                ("severity", Json::Str(d.severity.to_string())),
                (
                    "code",
                    match d.code {
                        Some(c) => Json::Str(c.to_string()),
                        None => Json::Null,
                    },
                ),
                ("line", Json::Int(d.span.start.line as i64)),
                ("col", Json::Int(d.span.start.col as i64)),
                ("message", Json::Str(d.message.clone())),
                ("labels", Json::Array(labels)),
                ("notes", Json::Array(notes)),
            ])
        })
        .collect();
    let errors = diags.iter().filter(|d| d.is_error()).count();
    Json::obj([
        ("file", Json::Str(file.to_string())),
        ("errors", Json::Int(errors as i64)),
        ("warnings", Json::Int((diags.len() - errors) as i64)),
        ("diagnostics", Json::Array(items)),
    ])
}

struct Analyzer<'a> {
    compiled: &'a Compiled,
    diags: Vec<Diagnostic>,
    /// Memoized `is_universal` verdicts per language name (FA005).
    universal: HashMap<String, bool>,
    /// Languages already reported as vacuous, to warn once per name.
    vacuous_reported: BTreeSet<String>,
    /// `def` bodies that flatten to a pure `(compose …)` chain of named
    /// stages, recorded by [`Analyzer::check_deftrans`] so contract
    /// checking can route them to FA101 instead of FA100.
    chains: HashMap<String, Vec<String>>,
}

impl Analyzer<'_> {
    fn check_lang(&mut self, l: &LangDecl) {
        let Some(sta) = self.compiled.lang(&l.name) else {
            return;
        };
        let rules = sta.rules(sta.initial());
        if rules.len() != l.rules.len() {
            return; // AST/compiled mismatch: another decl failed, stay silent.
        }
        let alg = sta.alg().clone();
        fast_obs::time!("analysis.check.fa001", || {
            for (ast, rule) in l.rules.iter().zip(rules) {
                count!("analysis.rules_checked");
                self.dead_rule_check(&alg, sta, ast, &rule.guard, &rule.lookahead, |s| {
                    sta.state_name(s).to_string()
                });
            }
        });
        fast_obs::time!("analysis.check.fa004", || {
            count!("analysis.solver_calls");
            if is_empty(sta).unwrap_or(false) {
                self.diags.push(
                    Diagnostic::warning(l.span, format!("language '{}' accepts no trees", l.name))
                        .with_code("FA004")
                        .with_note(
                            "every rule requires a child in the language itself (or in another \
                         empty language), so no finite tree can satisfy it",
                        ),
                );
            }
        });
        fast_obs::time!("analysis.check.fa005", || {
            for r in &l.rules {
                self.vacuous_lookahead_check(r);
            }
        });
    }

    fn check_trans(&mut self, t: &TransDecl) {
        let Some(sttr) = self.compiled.transducer(&t.name) else {
            return;
        };
        let rules = sttr.rules(sttr.initial());
        if rules.len() != t.rules.len() {
            return;
        }
        let alg = sttr.alg().clone();
        let la = sttr.lookahead_sta();
        fast_obs::time!("analysis.check.fa001", || {
            for (ast, rule) in t.rules.iter().zip(rules) {
                count!("analysis.rules_checked");
                self.dead_rule_check(&alg, la, &ast.lhs, &rule.guard, &rule.lookahead, |s| {
                    la.state_name(s).to_string()
                });
            }
        });
        fast_obs::time!("analysis.check.fa002", || {
            self.overlap_check(t, sttr, &alg);
        });
        fast_obs::time!("analysis.check.fa003", || {
            self.exhaustiveness_check(t, sttr, &alg);
        });
        fast_obs::time!("analysis.check.fa004", || {
            self.domain_and_reachability_check(t, sttr);
        });
        fast_obs::time!("analysis.check.fa005", || {
            for r in &t.rules {
                self.vacuous_lookahead_check(&r.lhs);
            }
        });
        fast_obs::time!("analysis.check.fa007", || {
            self.single_valuedness_check(t, sttr);
        });
    }

    /// FA007: the *semantic* single-valuedness decision
    /// ([`Sttr::single_valuedness`]). Only a run-verified ambiguity is
    /// reported: `Unknown` stays silent (FA002 already flags the
    /// syntactic overlap that caused it), and the
    /// single-valued-but-nondeterministic case is the good outcome —
    /// it unlocks exact left-composition where the determinism-only
    /// check used to cascade.
    fn single_valuedness_check(&mut self, t: &TransDecl, sttr: &Sttr) {
        count!("analysis.solver_calls");
        if let SvVerdict::Ambiguous { witness, outputs } =
            sttr.single_valuedness(SvBudget::default())
        {
            self.diags.push(
                Diagnostic::warning(
                    t.span,
                    format!(
                        "transformation '{}' is not single-valued: input {} produces {} \
                         distinct outputs",
                        t.name,
                        witness.display(sttr.ty()),
                        outputs,
                    ),
                )
                .with_code("FA007")
                .with_note(
                    "single-valuedness is the left precondition of Theorem 4: composing this \
                     transformation on the left over-approximates, and pipelines cascade at \
                     its boundaries",
                ),
            );
        }
    }

    /// FA001: a rule is dead when its guard is unsatisfiable or when some
    /// child's lookahead languages have an empty intersection.
    fn dead_rule_check<F: Fn(StateId) -> String>(
        &mut self,
        alg: &Arc<LabelAlg>,
        la: &Sta,
        ast: &LangRule,
        guard: &<LabelAlg as BoolAlg>::Pred,
        lookahead: &[BTreeSet<StateId>],
        state_name: F,
    ) {
        count!("analysis.solver_calls");
        if !alg.is_sat(guard) {
            self.diags.push(
                Diagnostic::warning(
                    ast.span,
                    format!(
                        "rule for constructor '{}' can never match: its guard is unsatisfiable",
                        ast.ctor
                    ),
                )
                .with_code("FA001")
                .with_note("no label satisfies the 'where' clause; the rule is dead"),
            );
            return;
        }
        for (i, set) in lookahead.iter().enumerate() {
            if set.is_empty() {
                continue; // unconstrained child
            }
            count!("analysis.solver_calls");
            if is_empty_at(la, set).is_ok_and(|e| e) {
                let var = ast.vars.get(i).map(String::as_str).unwrap_or("?");
                let langs: Vec<String> = set.iter().map(|&s| state_name(s)).collect();
                self.diags.push(
                    Diagnostic::warning(
                        ast.span,
                        format!(
                            "rule for constructor '{}' can never match: the lookahead \
                             languages for child '{var}' have no common tree",
                            ast.ctor
                        ),
                    )
                    .with_code("FA001")
                    .with_note(format!(
                        "the intersection of {} is empty",
                        langs.join(" and ")
                    )),
                );
                return;
            }
        }
    }

    /// FA002: two rules of the same constructor with different outputs are
    /// simultaneously enabled — guards jointly satisfiable and every
    /// child's joint lookahead non-empty ([`Sttr::lookaheads_meet`]). This
    /// is exactly the pairwise test of `Sttr::is_deterministic`
    /// (Definition 9), localized to source rules so each offending pair
    /// gets a span.
    fn overlap_check(&mut self, t: &TransDecl, sttr: &Sttr, alg: &Arc<LabelAlg>) {
        let rules = sttr.rules(sttr.initial());
        for a in 0..rules.len() {
            for b in (a + 1)..rules.len() {
                let (ra, rb) = (&rules[a], &rules[b]);
                if ra.ctor != rb.ctor || ra.output == rb.output {
                    continue;
                }
                count!("analysis.solver_calls");
                let joint_guard = alg.and(&ra.guard, &rb.guard);
                if !alg.is_sat(&joint_guard) {
                    continue;
                }
                // Syntactically different outputs may still be provably
                // equal on the overlap (e.g. `i` vs. `i * 1` under a
                // joint guard pinning `i = 0`): harmless nondeterminism,
                // exactly what FA007's product construction discharges.
                if outputs_provably_equal(alg, &joint_guard, &ra.output, &rb.output) {
                    continue;
                }
                // A budget error counts as an overlap.
                count!("analysis.solver_calls");
                if !sttr.lookaheads_meet(ra, rb).unwrap_or(true) {
                    continue;
                }
                count!("analysis.solver_calls");
                let example = alg
                    .model(&joint_guard)
                    .map(|m| format!(" (e.g. {})", describe_label(sttr.ty().sig(), &m)))
                    .unwrap_or_default();
                self.diags.push(
                    Diagnostic::warning(
                        t.rules[b].lhs.span,
                        format!(
                            "rules for constructor '{}' overlap: both can fire on the same \
                             input{example} with different outputs",
                            t.rules[b].lhs.ctor
                        ),
                    )
                    .with_code("FA002")
                    .with_label(t.rules[a].lhs.span, "the other overlapping rule is here")
                    .with_note(
                        "ambiguity breaks determinism (Definition 9) and single-valuedness, \
                         the left-composability side condition of Theorem 4",
                    ),
                );
            }
        }
    }

    /// FA003: for each constructor that has at least one rule, the
    /// disjunction of the rule guards must be valid — otherwise some
    /// label falls through the match and the witness is reported.
    /// Constructors with *no* rules are deliberate partiality (the
    /// transformation is simply undefined there) and are not flagged.
    fn exhaustiveness_check(&mut self, t: &TransDecl, sttr: &Sttr, alg: &Arc<LabelAlg>) {
        let rules = sttr.rules(sttr.initial());
        let mut by_ctor: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, r) in rules.iter().enumerate() {
            match by_ctor.iter_mut().find(|(c, _)| *c == r.ctor.0) {
                Some((_, v)) => v.push(i),
                None => by_ctor.push((r.ctor.0, vec![i])),
            }
        }
        for (_, idxs) in by_ctor {
            let preds: Vec<_> = idxs.iter().map(|&i| rules[i].guard.clone()).collect();
            let disj = alg.disj(preds.iter());
            let uncovered = alg.not(&disj);
            count!("analysis.solver_calls");
            if !alg.is_sat(&uncovered) {
                continue;
            }
            count!("analysis.solver_calls");
            let witness = alg
                .model(&uncovered)
                .map(|m| {
                    format!(
                        ": no rule applies when {}",
                        describe_label(sttr.ty().sig(), &m)
                    )
                })
                .unwrap_or_default();
            let first = &t.rules[idxs[0]].lhs;
            let mut d = Diagnostic::warning(
                first.span,
                format!(
                    "match on constructor '{}' is not exhaustive{witness}",
                    first.ctor
                ),
            )
            .with_code("FA003")
            .with_note(
                "inputs whose label evades every guard are silently outside the domain; \
                 add a rule or a catch-all guard if that is unintended",
            );
            for &i in &idxs[1..] {
                d = d.with_label(t.rules[i].lhs.span, "another rule of this constructor");
            }
            self.diags.push(d);
        }
    }

    /// FA004 for transducers: empty domain, and transformation states
    /// unreachable from the initial state.
    fn domain_and_reachability_check(&mut self, t: &TransDecl, sttr: &Sttr) {
        count!("analysis.solver_calls");
        if is_empty(&sttr.domain()).unwrap_or(false) {
            self.diags.push(
                Diagnostic::warning(
                    t.span,
                    format!(
                        "transformation '{}' has an empty domain: it produces no output \
                         on any input",
                        t.name
                    ),
                )
                .with_code("FA004"),
            );
        }
        let mut reachable = vec![false; sttr.state_count()];
        let mut stack = vec![sttr.initial()];
        while let Some(q) = stack.pop() {
            if std::mem::replace(&mut reachable[q.0], true) {
                continue;
            }
            let mut used = BTreeSet::new();
            for r in sttr.rules(q) {
                r.output.states_used(&mut used);
            }
            stack.extend(used);
        }
        let unreachable: Vec<&str> = sttr
            .states()
            .filter(|q| !reachable[q.0])
            .map(|q| sttr.state_name(q))
            .collect();
        if !unreachable.is_empty() {
            self.diags.push(
                Diagnostic::warning(
                    t.span,
                    format!(
                        "transformation '{}' carries {} state(s) unreachable from its \
                         initial state: {}",
                        t.name,
                        unreachable.len(),
                        unreachable.join(", ")
                    ),
                )
                .with_code("FA004")
                .with_note("unreachable states usually come from rules that never call them"),
            );
        }
    }

    /// FA006: every `(compose S T)` boundary in a `def` transformation
    /// body is checked against Theorem 4's exactness precondition —
    /// fusable iff `S` is single-valued or `T` is linear. Boundaries
    /// whose factors are not plain names are skipped (their products are
    /// not registered in `Compiled`), but nested expressions are still
    /// walked, so every named pair gets a verdict.
    fn check_deftrans(&mut self, d: &DefTransDecl) {
        fast_obs::time!("analysis.check.fa006", || self.boundary_check(&d.body));
        let mut stages = Vec::new();
        if flatten_chain(&d.body, &mut stages) && stages.len() >= 2 {
            self.chains.insert(d.name.clone(), stages);
        }
    }

    fn boundary_check(&mut self, e: &TExpr) {
        match e {
            TExpr::Name(..) => {}
            TExpr::Compose(l, r, span) => {
                self.boundary_check(l);
                self.boundary_check(r);
                let (Some(ls), Some(rs)) = (self.resolve_texpr(l), self.resolve_texpr(r)) else {
                    return;
                };
                count!("analysis.solver_calls");
                if let Exactness::Overapproximate {
                    left_witness,
                    right_witness,
                } = compose_exactness(ls, rs)
                {
                    self.diags.push(
                        Diagnostic::warning(
                            *span,
                            "pipeline boundary not fusable: the composed transformation \
                             over-approximates the staged chain (Theorem 4)",
                        )
                        .with_code("FA006")
                        .with_note(format!(
                            "left factor is not single-valued (FA007 verdict: {left_witness})"
                        ))
                        .with_note(format!("right factor is not linear: {right_witness}"))
                        .with_note(
                            "the composition accepts every staged output and possibly more; \
                             run the stages separately (fast-rt cascades such boundaries) if \
                             exact semantics matter",
                        ),
                    );
                }
            }
            TExpr::Restrict(t, _, _) | TExpr::RestrictOut(t, _, _) => self.boundary_check(t),
        }
    }

    /// Resolves a transducer expression to its compiled STTR when it is
    /// a plain name; composite sub-expressions return `None` (their
    /// products are anonymous).
    fn resolve_texpr(&self, e: &TExpr) -> Option<&Sttr> {
        match e {
            TExpr::Name(n, _) => self.compiled.transducer(n),
            _ => None,
        }
    }

    /// FA005: a `given` clause naming a language that accepts every tree
    /// constrains nothing. Reported once per language name.
    fn vacuous_lookahead_check(&mut self, r: &LangRule) {
        for (lang, _) in &r.given {
            if self.vacuous_reported.contains(lang) {
                continue;
            }
            let verdict = match self.universal.get(lang) {
                Some(&v) => v,
                None => {
                    count!("analysis.solver_calls");
                    let v = self
                        .compiled
                        .lang(lang)
                        .map(|sta| is_universal(sta).unwrap_or(false))
                        .unwrap_or(false);
                    self.universal.insert(lang.clone(), v);
                    v
                }
            };
            if verdict {
                self.vacuous_reported.insert(lang.clone());
                self.diags.push(
                    Diagnostic::warning(
                        r.span,
                        format!(
                            "lookahead language '{lang}' accepts every tree; the given \
                             clause is vacuous"
                        ),
                    )
                    .with_code("FA005"),
                );
            }
        }
    }

    /// FA100/FA101: every declared contract `f : L1 -> L2` must satisfy
    /// `L(L1) ∩ preimage(f, ¬L(L2)) = ∅` (pre-image typechecking), decided
    /// by [`check_pipeline`] with a replayed counterexample on violation.
    ///
    /// A contract on a `def` whose body is a pure compose chain of named
    /// stages is checked as that chain (FA101): iterating `preimage`
    /// backward through the stages stays exact where the eagerly composed
    /// product may over-approximate. Every other contract is the
    /// one-stage chain of its transformation (FA100).
    fn check_contracts(&mut self) {
        let compiled = self.compiled;
        for c in compiled.contracts() {
            let Some(out_name) = c.output.as_deref() else {
                continue; // input-only contracts constrain nothing checkable
            };
            let (Some(sttr), Some(l2), Some(ty)) = (
                compiled.transducer(&c.trans),
                compiled.lang(out_name),
                compiled.tree_type(&c.ty),
            ) else {
                continue;
            };
            let l1 = match c.input.as_deref() {
                Some(name) => match compiled.lang(name) {
                    Some(sta) => Some(sta),
                    None => continue,
                },
                None => None,
            };
            let chain = self.chains.get(&c.trans).and_then(|names| {
                let stages: Option<Vec<&Sttr>> =
                    names.iter().map(|n| compiled.transducer(n)).collect();
                Some((names.clone(), stages?))
            });
            count!("analysis.solver_calls");
            match chain {
                Some((names, stages)) => fast_obs::time!("analysis.check.fa101", || {
                    let outcome = check_pipeline(&stages, l1, l2);
                    self.report_contract(c, "FA101", &names, outcome, out_name, ty);
                }),
                None => {
                    let outcome = check_pipeline(&[sttr], l1, l2);
                    self.report_contract(c, "FA100", &[&c.trans], outcome, out_name, ty);
                }
            }
        }
    }

    /// Reports the [`check_pipeline`] outcome of contract `c` under `code`:
    /// `FA100` for a single transformation, `FA101` for the staged chain
    /// of `names`. A violation is an error carrying the replayed
    /// counterexample; an unproved contract is a warning.
    fn report_contract<S: AsRef<str>>(
        &mut self,
        c: &Contract,
        code: &'static str,
        names: &[S],
        outcome: PipelineOutcome,
        out_name: &str,
        ty: &TreeType,
    ) {
        let pipeline = code == "FA101";
        let d = match outcome {
            PipelineOutcome::Satisfied => return,
            PipelineOutcome::Violated(v) => {
                let input = c.input.as_deref();
                let message = if pipeline {
                    let input = input.map_or("an input".into(), |n| format!("an input in '{n}'"));
                    let chain: Vec<&str> = names.iter().map(AsRef::as_ref).collect();
                    format!(
                        "pipeline '{}' violates its contract: {input} drives the staged chain \
                         {} to an output outside '{out_name}'",
                        c.trans,
                        chain.join(" ; "),
                    )
                } else {
                    let input =
                        input.map_or("some input".into(), |n| format!("some input in '{n}'"));
                    format!(
                        "transformation '{}' violates its contract: {input} can produce an \
                         output outside '{out_name}'",
                        c.trans,
                    )
                };
                let mut d = Diagnostic::new(c.span, message);
                d.notes = v.notes(names, ty);
                d
            }
            PipelineOutcome::Unknown(reason) => Diagnostic::warning(
                c.span,
                format!(
                    "{}contract of '{}' could not be verified: {reason}",
                    if pipeline { "pipeline " } else { "" },
                    c.trans
                ),
            ),
        };
        self.diags.push(d.with_code(code));
    }
}

/// `true` when `e` is a pure `(compose …)` tree over plain names; the
/// stage names are appended to `out` in application (left-to-right)
/// order. `restrict`/`restrict-out` factors disqualify the chain — their
/// contracts keep the composed FA100 check.
fn flatten_chain(e: &TExpr, out: &mut Vec<String>) -> bool {
    match e {
        TExpr::Name(n, _) => {
            out.push(n.clone());
            true
        }
        TExpr::Compose(l, r, _) => flatten_chain(l, out) && flatten_chain(r, out),
        TExpr::Restrict(..) | TExpr::RestrictOut(..) => false,
    }
}

/// Are two rule outputs provably equal wherever `joint` holds? Requires
/// identical shapes and identical recursive calls; label functions may
/// differ syntactically as long as the solver proves they agree on every
/// label satisfying the joint guard (FA002's semantic upgrade — the
/// local, single-rule-pair slice of FA007's product construction).
fn outputs_provably_equal(
    alg: &Arc<LabelAlg>,
    joint: &<LabelAlg as BoolAlg>::Pred,
    a: &Out<LabelAlg>,
    b: &Out<LabelAlg>,
) -> bool {
    match (a, b) {
        (Out::Call(p, i), Out::Call(q, j)) => p == q && i == j,
        (
            Out::Node {
                ctor: c1,
                fun: f1,
                children: k1,
            },
            Out::Node {
                ctor: c2,
                fun: f2,
                children: k2,
            },
        ) => {
            if c1 != c2 || k1.len() != k2.len() {
                return false;
            }
            if f1 != f2 {
                let Some(diff) = alg.funs_differ(f1, f2) else {
                    return false;
                };
                count!("analysis.solver_calls");
                if alg.is_sat(&alg.and(joint, &diff)) {
                    return false;
                }
            }
            k1.iter()
                .zip(k2)
                .all(|(x, y)| outputs_provably_equal(alg, joint, x, y))
        }
        _ => false,
    }
}

/// Renders a label as `name = value` pairs (or `the empty label` for
/// unit signatures) for witness messages.
fn describe_label(sig: &LabelSig, label: &Label) -> String {
    if sig.arity() == 0 {
        return "the label is empty".to_string();
    }
    (0..sig.arity())
        .map(|i| format!("{} = {}", sig.name(i), label.get(i)))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_lang::DiagSink;

    fn check(src: &str) -> Vec<Diagnostic> {
        let program = fast_lang::parse(src).expect("parse");
        let mut sink = DiagSink::new();
        let compiled = fast_lang::compile_ast(&program, &mut sink).unwrap_or_else(|| {
            panic!(
                "compile failed: {:?}",
                sink.diagnostics()
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            )
        });
        analyze(&program, &compiled)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().filter_map(|d| d.code).collect()
    }

    #[test]
    fn fa001_unsatisfiable_guard() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans f: T -> T {
              z() where (i < 0 and i > 0) to (z [i])
            | z() to (z [i])
            | s(x) to (s [i] (f x))
            }
            "#,
        );
        let fa001: Vec<_> = diags.iter().filter(|d| d.code == Some("FA001")).collect();
        assert_eq!(fa001.len(), 1, "{diags:?}");
        assert_eq!(fa001[0].span.start.line, 4);
        assert!(!fa001[0].is_error());
    }

    #[test]
    fn fa001_empty_lookahead_intersection() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang pos: T { z() where (i > 0) | s(x) given (pos x) }
            lang neg: T { z() where (i < 0) | s(x) given (neg x) }
            trans f: T -> T {
              s(x) given (pos x) (neg x) to (s [i] (f x))
            | z() to (z [i])
            }
            "#,
        );
        assert!(codes(&diags).contains(&"FA001"), "{diags:?}");
        let d = diags.iter().find(|d| d.code == Some("FA001")).unwrap();
        assert!(d.message.contains("no common tree"), "{}", d.message);
    }

    #[test]
    fn fa002_overlapping_guards() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans f: T -> T {
              s(x) where (i > 0) to (s [i] (f x))
            | s(x) where (i > 5) to (f x)
            | z() to (z [i])
            }
            "#,
        );
        let fa002: Vec<_> = diags.iter().filter(|d| d.code == Some("FA002")).collect();
        assert_eq!(fa002.len(), 1, "{diags:?}");
        assert_eq!(fa002[0].labels.len(), 1, "secondary label on the pair");
    }

    #[test]
    fn fa002_not_raised_for_identical_outputs() {
        // Same output on both rules: harmless nondeterminism.
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans f: T -> T {
              s(x) where (i > 0) to (s [i] (f x))
            | s(x) where (i > 5) to (s [i] (f x))
            | z() to (z [i])
            }
            "#,
        );
        assert!(!codes(&diags).contains(&"FA002"), "{diags:?}");
    }

    #[test]
    fn fa002_disjoint_lookahead_disambiguates() {
        // Guards overlap (both True) but the lookahead languages are
        // disjoint, so the rules can never fire together — mirrors
        // `odd_negate.fast`'s `h`.
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang pos: T { z() where (i > 0) | s(x) given (pos x) }
            lang neg: T { z() where (i < 0) | s(x) given (neg x) }
            trans f: T -> T {
              s(x) given (pos x) to (s [i] (f x))
            | s(x) given (neg x) to (f x)
            | z() to (z [i])
            }
            "#,
        );
        assert!(!codes(&diags).contains(&"FA002"), "{diags:?}");
    }

    #[test]
    fn fa003_non_exhaustive_match_reports_witness() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans f: T -> T {
              s(x) where (i > 0) to (s [i] (f x))
            | z() to (z [i])
            }
            "#,
        );
        let d = diags
            .iter()
            .find(|d| d.code == Some("FA003"))
            .unwrap_or_else(|| panic!("{diags:?}"));
        assert!(d.message.contains("i = "), "witness label: {}", d.message);
    }

    #[test]
    fn fa003_exhaustive_split_is_clean() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans f: T -> T {
              s(x) where (i > 0) to (s [i] (f x))
            | s(x) where not (i > 0) to (f x)
            | z() to (z [i])
            }
            "#,
        );
        assert!(!codes(&diags).contains(&"FA003"), "{diags:?}");
        // FA002 must not fire either: the guards are disjoint.
        assert!(!codes(&diags).contains(&"FA002"), "{diags:?}");
    }

    #[test]
    fn fa004_empty_language() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang inf: T { s(x) given (inf x) }
            "#,
        );
        assert!(codes(&diags).contains(&"FA004"), "{diags:?}");
    }

    #[test]
    fn fa004_empty_domain() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans f: T -> T { s(x) to (s [i] (f x)) }
            "#,
        );
        // f only handles s, whose child needs f again: no finite input.
        assert!(codes(&diags).contains(&"FA004"), "{diags:?}");
    }

    #[test]
    fn fa005_vacuous_lookahead() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang any: T { z() | s(x) given (any x) }
            trans f: T -> T {
              s(x) given (any x) to (s [i] (f x))
            | z() to (z [i])
            }
            "#,
        );
        let fa005: Vec<_> = diags.iter().filter(|d| d.code == Some("FA005")).collect();
        // Reported once per language name even though `any` appears in
        // its own lang block too.
        assert_eq!(fa005.len(), 1, "{diags:?}");
    }

    #[test]
    fn fa006_unfusable_compose_boundary() {
        // `amb` is not single-valued (two overlapping z-rules with
        // different outputs) and `dup` is not linear (x used twice), so
        // the (compose amb dup) boundary over-approximates.
        let diags = check(
            r#"
            type T[i: Int] { z(0), n(2) }
            trans dup: T -> T {
              z() to (z [i])
            | n(x, y) to (n [i] (dup x) (dup x))
            }
            trans amb: T -> T {
              z() to (z [i])
            | z() to (z [i + 1])
            | n(x, y) to (n [i] (amb x) (amb y))
            }
            def chain: T -> T := (compose amb dup)
            "#,
        );
        let d = diags
            .iter()
            .find(|d| d.code == Some("FA006"))
            .unwrap_or_else(|| panic!("{diags:?}"));
        assert!(!d.is_error());
        assert!(
            d.notes.iter().any(|n| n.contains("not single-valued")),
            "{d:?}"
        );
        assert!(d.notes.iter().any(|n| n.contains("not linear")), "{d:?}");
    }

    #[test]
    fn fa006_silent_when_left_single_valued() {
        // Same factors, flipped: `dup` is deterministic, so the
        // boundary is exact regardless of `amb`'s non-linearity…
        // (`amb` *is* linear here, but `dup` being single-valued alone
        // suffices; FA002 still fires on amb's own overlap).
        let diags = check(
            r#"
            type T[i: Int] { z(0), n(2) }
            trans dup: T -> T {
              z() to (z [i])
            | n(x, y) to (n [i] (dup x) (dup x))
            }
            trans amb: T -> T {
              z() to (z [i])
            | z() to (z [i + 1])
            | n(x, y) to (n [i] (amb x) (amb y))
            }
            def chain: T -> T := (compose dup amb)
            "#,
        );
        assert!(!codes(&diags).contains(&"FA006"), "{diags:?}");
    }

    #[test]
    fn fa007_ambiguous_transformation_warns() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans amb: T -> T {
              z() to (z [i])
            | z() to (z [i + 1])
            | s(x) to (s [i] (amb x))
            }
            "#,
        );
        let d = diags
            .iter()
            .find(|d| d.code == Some("FA007"))
            .unwrap_or_else(|| panic!("{diags:?}"));
        assert!(!d.is_error());
        assert!(d.message.contains("not single-valued"), "{}", d.message);
        assert!(d.message.contains("distinct outputs"), "{}", d.message);
    }

    #[test]
    fn fa007_and_fa002_silent_for_output_equivalent_overlap() {
        // Overlapping guards whose outputs provably agree on the overlap
        // (`i` vs `i * 1` at `i = 0`): nondeterministic but single-valued.
        // FA007's product construction proves it; FA002's semantic
        // upgrade skips the pair for the same reason.
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans norm: T -> T {
              z() to (z [0])
            | s(x) where (i >= 0) to (s [i] (norm x))
            | s(x) where (i <= 0) to (s [i * 1] (norm x))
            }
            "#,
        );
        assert!(!codes(&diags).contains(&"FA007"), "{diags:?}");
        assert!(!codes(&diags).contains(&"FA002"), "{diags:?}");
    }

    #[test]
    fn fa101_chain_contract_violation_replays_counterexample() {
        // keep;bump over evens: bump flips parity, so the chain maps
        // evens outside evens. The contract sits on a pure compose chain
        // of names — FA101 (stage-wise pre-images) must fire, FA100 on
        // the eagerly composed product must not.
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang evens: T { z() where (i % 2 = 0) | s(x) where (i % 2 = 0) given (evens x) }
            trans keep: T -> T { z() to (z [i]) | s(x) to (s [i] (keep x)) }
            trans bump: T -> T { z() to (z [i + 1]) | s(x) to (s [i + 1] (bump x)) }
            def chain: evens -> evens := (compose keep bump)
            "#,
        );
        let d = diags
            .iter()
            .find(|d| d.code == Some("FA101"))
            .unwrap_or_else(|| panic!("{diags:?}"));
        assert!(d.is_error());
        assert!(
            d.notes.iter().any(|n| n.contains("counterexample input:")),
            "{d:?}"
        );
        assert!(
            d.notes.iter().any(|n| n.contains("offending stage")),
            "{d:?}"
        );
        assert!(!codes(&diags).contains(&"FA100"), "{diags:?}");
    }

    #[test]
    fn fa101_locates_the_committing_stage() {
        // amb can keep parity or flip it; keep preserves. The replay
        // that escapes `evens` commits at stage 1 — the bad branch of
        // amb — and the marker must land on that intermediate.
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang evens: T { z() where (i % 2 = 0) | s(x) where (i % 2 = 0) given (evens x) }
            trans amb: T -> T {
              z() to (z [i])
            | z() to (z [i + 1])
            | s(x) to (s [i] (amb x))
            }
            trans keep: T -> T { z() to (z [i]) | s(x) to (s [i] (keep x)) }
            def chain: evens -> evens := (compose amb keep)
            "#,
        );
        let d = diags
            .iter()
            .find(|d| d.code == Some("FA101"))
            .unwrap_or_else(|| panic!("{diags:?}"));
        let off = d
            .notes
            .iter()
            .find(|n| n.contains("offending stage"))
            .unwrap_or_else(|| panic!("{d:?}"));
        assert!(off.contains("after stage 1 ('amb')"), "{off}");
    }

    #[test]
    fn fa101_satisfied_chain_is_clean() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang evens: T { z() where (i % 2 = 0) | s(x) where (i % 2 = 0) given (evens x) }
            trans keep: T -> T { z() to (z [i]) | s(x) to (s [i] (keep x)) }
            trans dbl: T -> T { z() to (z [i + i]) | s(x) to (s [i + i] (dbl x)) }
            def chain: evens -> evens := (compose keep dbl)
            "#,
        );
        assert!(!codes(&diags).contains(&"FA101"), "{diags:?}");
        assert!(!codes(&diags).contains(&"FA100"), "{diags:?}");
    }

    #[test]
    fn fa100_contract_violation_has_counterexample() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang evens: T { z() where (i % 2 = 0) | s(x) where (i % 2 = 0) given (evens x) }
            trans bump: evens -> evens {
              z() to (z [i + 1])
            | s(x) to (s [i] (bump x))
            }
            "#,
        );
        let d = diags
            .iter()
            .find(|d| d.code == Some("FA100"))
            .unwrap_or_else(|| panic!("{diags:?}"));
        assert!(d.is_error());
        assert!(
            d.notes.iter().any(|n| n.contains("counterexample input:")),
            "{d:?}"
        );
    }

    #[test]
    fn fa100_satisfied_contract_is_clean() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang evens: T { z() where (i % 2 = 0) | s(x) where (i % 2 = 0) given (evens x) }
            trans keep: evens -> evens {
              z() to (z [i])
            | s(x) to (s [i] (keep x))
            }
            "#,
        );
        assert!(diags.iter().all(|d| d.code != Some("FA100")), "{diags:?}");
    }

    #[test]
    fn fa100_output_only_contract_uses_universal_input() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang evens: T { z() where (i % 2 = 0) | s(x) where (i % 2 = 0) given (evens x) }
            trans zero: T -> evens {
              z() to (z [1])
            | s(x) to (s [0] (zero x))
            }
            "#,
        );
        // zero outputs z[1], which is odd: the contract fails even with
        // an unconstrained input side.
        assert!(codes(&diags).contains(&"FA100"), "{diags:?}");
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            lang evens: T { z() where (i % 2 = 0) | s(x) where (i % 2 = 0) given (evens x) }
            trans caesar: T -> T {
              z() to (z [(i + 1) % 26])
            | s(x) to (s [(i + 1) % 26] (caesar x))
            }
            assert-true (type-check evens caesar (complement evens))
            "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn guards_exhaustive_agrees_on_simple_split() {
        use fast_smt::{CmpOp, Sort, Term};
        let sig = LabelSig::single("i", Sort::Int);
        let alg = LabelAlg::new(sig);
        let gt = Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(0));
        let le = Formula::cmp(CmpOp::Le, Term::field(0), Term::int(0));
        let (ok, w) = guards_exhaustive(&alg, &[gt.clone(), le]);
        assert!(ok);
        assert!(w.is_none());
        let (ok, w) = guards_exhaustive(&alg, std::slice::from_ref(&gt));
        assert!(!ok);
        let w = w.expect("witness");
        assert!(!gt.eval(&w), "witness must evade the guard");
    }

    #[test]
    fn json_rendering_shape() {
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans f: T -> T {
              z() where (i < 0 and i > 0) to (z [i])
            | z() to (z [i])
            | s(x) to (s [i] (f x))
            }
            "#,
        );
        let j = diagnostics_to_json("t.fast", &diags);
        assert_eq!(j.get("file").and_then(Json::as_str), Some("t.fast"));
        assert_eq!(j.get("errors").and_then(Json::as_int), Some(0));
        let items = j.get("diagnostics").and_then(Json::as_array).unwrap();
        assert!(!items.is_empty());
        assert_eq!(
            items[0].get("code").and_then(Json::as_str),
            Some("FA001"),
            "{j}"
        );
        // Round-trips through the parser.
        let text = j.to_string();
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn analysis_counters_are_recorded() {
        let before = fast_obs::snapshot();
        let diags = check(
            r#"
            type T[i: Int] { z(0), s(1) }
            trans f: T -> T {
              z() where (i < 0 and i > 0) to (z [i])
            | z() to (z [i])
            | s(x) to (s [i] (f x))
            }
            "#,
        );
        assert!(!diags.is_empty());
        let d = fast_obs::snapshot().delta_from(&before);
        assert!(d.get("analysis.rules_checked") >= 3);
        assert!(d.get("analysis.solver_calls") >= 3);
        assert!(d.get("analysis.diags_emitted") >= 1);
        assert!(d.hists.contains_key("analysis.check.fa001"));
        assert!(d.hists.contains_key("analysis.check.fa007"));
        assert!(d.hists.contains_key("analysis.check.fa100"));
    }
}
