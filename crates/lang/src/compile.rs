//! Compiler and evaluator: lowers Fast programs onto STAs and STTRs and
//! evaluates definitions and assertions in source order.
//!
//! Processing model (matching the paper's examples):
//!
//! 1. all `type` declarations;
//! 2. all `lang` blocks, grouped per tree type and compiled together into
//!    one shared STA so that mutually recursive languages (like
//!    `nodeTree`/`attrTree`) work with forward references;
//! 3. everything else in source order — `trans` blocks (which may call
//!    themselves and previously defined transformations, and whose `given`
//!    clauses may reference any previously known language), `def`s,
//!    `tree`s, and `assert`s.

use crate::ast::*;
use crate::diag::{DiagSink, Diagnostic, Span};
use fast_automata::{
    complement, difference, emptiness, equivalence, intersect, minimize, union, witness, Sta,
    StaBuilder, StateId, Verdict,
};
use fast_core::{
    check_pipeline, compose, preimage, restrict, restrict_out, Out, PipelineOutcome, Sttr,
    SttrBuilder,
};
use fast_smt::{Atom, CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use std::collections::HashMap;
use std::sync::Arc;

/// The result of one `assert-true` / `assert-false`.
#[derive(Debug, Clone)]
pub struct AssertionResult {
    /// Source location of the assertion.
    pub span: Span,
    /// Human-readable restatement.
    pub description: String,
    /// Expected truth value.
    pub expected: bool,
    /// Actual truth value.
    pub actual: bool,
    /// A witness tree (pretty-printed) when the assertion fails on an
    /// emptiness/equivalence/type-check question.
    pub counterexample: Option<String>,
    /// Why the question could be neither proved nor refuted (an
    /// `is-empty` or `type-check` whose language is not provably empty
    /// but yields no member). Such an assertion never passes, and
    /// `actual` is `false`.
    pub undecided: Option<String>,
}

impl AssertionResult {
    /// Did the assertion hold? Never true for an undecided one.
    pub fn passed(&self) -> bool {
        self.undecided.is_none() && self.expected == self.actual
    }
}

/// All assertion outcomes of a program run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// One entry per assertion, in source order.
    pub assertions: Vec<AssertionResult>,
}

impl Report {
    /// True when every assertion held (an undecided one does not).
    pub fn all_passed(&self) -> bool {
        self.assertions.iter().all(AssertionResult::passed)
    }
}

/// A named language: its tree type and automaton.
#[derive(Debug, Clone)]
struct LangEntry {
    ty: String,
    sta: Sta,
}

/// A named transformation: its tree type and transducer.
#[derive(Debug, Clone)]
struct TransEntry {
    ty: String,
    sttr: Sttr,
}

/// A declared input/output contract of a transformation.
///
/// `trans f : X -> Y` (and `def f : X -> Y := …`) accept either tree
/// *type* names or previously declared *language* names for `X` and `Y`.
/// A language name pins the transformation to a contract — every input in
/// `L(X)` must map only to outputs in `L(Y)` — which the static analyzer
/// (`fast-analysis`, check FA100) verifies by pre-image emptiness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// Name of the transformation the contract is attached to.
    pub trans: String,
    /// Underlying tree type (shared by input and output).
    pub ty: String,
    /// Input language name, when `X` named a language.
    pub input: Option<String>,
    /// Output language name, when `Y` named a language.
    pub output: Option<String>,
    /// Source location of the declaration.
    pub span: Span,
}

/// A compiled Fast program: all named artifacts plus the assertion report.
#[derive(Debug)]
pub struct Compiled {
    types: HashMap<String, Arc<TreeType>>,
    algs: HashMap<String, Arc<LabelAlg>>,
    langs: HashMap<String, LangEntry>,
    trans: HashMap<String, TransEntry>,
    trees: HashMap<String, (String, Tree)>,
    contracts: Vec<Contract>,
    report: Report,
}

impl Compiled {
    /// The assertion report.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Looks up a tree type by name.
    pub fn tree_type(&self, name: &str) -> Option<&Arc<TreeType>> {
        self.types.get(name)
    }

    /// Looks up the label algebra of a type.
    pub fn alg(&self, ty: &str) -> Option<&Arc<LabelAlg>> {
        self.algs.get(ty)
    }

    /// Looks up a language (from `lang` or `def`) by name.
    pub fn lang(&self, name: &str) -> Option<&Sta> {
        self.langs.get(name).map(|e| &e.sta)
    }

    /// Looks up a transformation (from `trans` or `def`) by name.
    pub fn transducer(&self, name: &str) -> Option<&Sttr> {
        self.trans.get(name).map(|e| &e.sttr)
    }

    /// Looks up a named tree.
    pub fn tree(&self, name: &str) -> Option<&Tree> {
        self.trees.get(name).map(|(_, t)| t)
    }

    /// The tree type a transformation runs over.
    pub fn transducer_type(&self, name: &str) -> Option<&str> {
        self.trans.get(name).map(|e| e.ty.as_str())
    }

    /// The tree type a language is over.
    pub fn lang_type(&self, name: &str) -> Option<&str> {
        self.langs.get(name).map(|e| e.ty.as_str())
    }

    /// Declared input/output contracts, in source order.
    pub fn contracts(&self) -> &[Contract] {
        &self.contracts
    }

    /// Names of all defined languages (from `lang` and `def`), sorted.
    pub fn lang_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.langs.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Names of all defined transformations (from `trans` and `def`),
    /// sorted.
    pub fn transducer_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.trans.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Names of all defined trees, sorted.
    pub fn tree_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.trees.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Runs a named transformation on a tree (convenience wrapper).
    ///
    /// # Errors
    ///
    /// Returns a message if the name is unknown or the run exceeds its
    /// budget.
    pub fn apply(&self, trans_name: &str, input: &Tree) -> Result<Vec<Tree>, String> {
        let t = self
            .transducer(trans_name)
            .ok_or_else(|| format!("unknown transformation '{trans_name}'"))?;
        t.run(input).map_err(|e| e.to_string())
    }
}

/// Compiles and evaluates a Fast program.
///
/// # Errors
///
/// Returns the first lexical, syntactic, type, or evaluation error.
/// Failed and undecided assertions are *not* errors; they are recorded
/// in the [`Report`].
pub fn compile(src: &str) -> Result<Compiled, Diagnostic> {
    let mut sink = DiagSink::new();
    let compiled = compile_collect(src, &mut sink);
    match sink.first_error() {
        Some(d) => Err(d),
        None => Ok(compiled.expect("no errors implies a compiled program")),
    }
}

/// Compiles and evaluates a Fast program, recording *every* diagnostic
/// into `sink` instead of stopping at the first error. A declaration
/// that fails to compile is skipped; later declarations still compile
/// (possibly producing follow-on "unknown name" errors).
///
/// Returns `Some` iff no error-severity diagnostic was recorded.
pub fn compile_collect(src: &str, sink: &mut DiagSink) -> Option<Compiled> {
    let program = match crate::parser::parse(src) {
        Ok(p) => p,
        Err(d) => {
            sink.push(d);
            return None;
        }
    };
    compile_ast(&program, sink)
}

/// Compiles an already-parsed program, collecting diagnostics (see
/// [`compile_collect`]).
pub fn compile_ast(program: &Program, sink: &mut DiagSink) -> Option<Compiled> {
    let mut c = Compiler::default();
    c.run(program, sink);
    if sink.has_errors() {
        return None;
    }
    Some(Compiled {
        types: c.types,
        algs: c.algs,
        langs: c.langs,
        trans: c.trans,
        trees: c.trees,
        contracts: c.contracts,
        report: c.report,
    })
}

#[derive(Default)]
struct Compiler {
    types: HashMap<String, Arc<TreeType>>,
    algs: HashMap<String, Arc<LabelAlg>>,
    langs: HashMap<String, LangEntry>,
    trans: HashMap<String, TransEntry>,
    trees: HashMap<String, (String, Tree)>,
    contracts: Vec<Contract>,
    report: Report,
}

fn err(span: Span, msg: impl Into<String>) -> Diagnostic {
    Diagnostic::new(span, msg)
}

impl Compiler {
    fn run(&mut self, program: &Program, sink: &mut DiagSink) {
        // Pass 1: types.
        for d in &program.decls {
            if let Decl::Type(t) = d {
                if let Err(e) = self.type_decl(t) {
                    sink.push(e);
                }
            }
        }
        // Pass 2: lang blocks, grouped per tree type.
        let mut by_ty: Vec<(String, Vec<&LangDecl>)> = Vec::new();
        for d in &program.decls {
            if let Decl::Lang(l) = d {
                match by_ty.iter_mut().find(|(ty, _)| *ty == l.ty) {
                    Some((_, v)) => v.push(l),
                    None => by_ty.push((l.ty.clone(), vec![l])),
                }
            }
        }
        for (ty, decls) in by_ty {
            if let Err(e) = self.lang_group(&ty, &decls) {
                sink.push(e);
            }
        }
        // Pass 3: the rest, in source order. A declaration that fails is
        // skipped (its name stays undefined); later declarations still
        // compile so every independent error is reported.
        for d in &program.decls {
            let r = match d {
                Decl::Type(_) | Decl::Lang(_) => Ok(()),
                Decl::Trans(t) => self.trans_decl(t),
                Decl::DefLang(d) => self.def_lang(d),
                Decl::DefTrans(d) => self.def_trans(d),
                Decl::Tree(t) => self.tree_decl(t),
                Decl::Assert(a) => self.assert_decl(a),
            };
            if let Err(e) = r {
                sink.push(e);
            }
        }
    }

    fn type_decl(&mut self, t: &TypeDecl) -> Result<(), Diagnostic> {
        if self.types.contains_key(&t.name) {
            return Err(err(t.span, format!("type '{}' is already defined", t.name)));
        }
        let mut fields = Vec::new();
        for (name, sort) in &t.attrs {
            let sort = match sort {
                SortName::Int => Sort::Int,
                SortName::Str => Sort::Str,
                SortName::Bool => Sort::Bool,
                SortName::Char => Sort::Char,
                SortName::Real => {
                    return Err(err(
                        t.span,
                        "sort 'Real' is not supported by the bundled solver \
                         (see DESIGN.md: the label theory covers Int, String, Bool, Char)",
                    ))
                }
            };
            fields.push((name.clone(), sort));
        }
        if !t.ctors.iter().any(|(_, r)| *r == 0) {
            return Err(err(
                t.span,
                format!("type '{}' needs at least one nullary constructor", t.name),
            ));
        }
        let sig = LabelSig::new(fields);
        let ty = TreeType::new(
            &t.name,
            sig.clone(),
            t.ctors.iter().map(|(n, r)| (n.as_str(), *r)).collect(),
        );
        self.algs
            .insert(t.name.clone(), Arc::new(LabelAlg::new(sig)));
        self.types.insert(t.name.clone(), ty);
        Ok(())
    }

    fn get_type(
        &self,
        name: &str,
        span: Span,
    ) -> Result<(Arc<TreeType>, Arc<LabelAlg>), Diagnostic> {
        match (self.types.get(name), self.algs.get(name)) {
            (Some(t), Some(a)) => Ok((t.clone(), a.clone())),
            _ => Err(err(span, format!("unknown tree type '{name}'"))),
        }
    }

    fn lang_group(&mut self, ty_name: &str, decls: &[&LangDecl]) -> Result<(), Diagnostic> {
        let (ty, alg) = self.get_type(ty_name, decls[0].span)?;
        let mut b = StaBuilder::new(ty.clone(), alg.clone());
        let mut states: HashMap<&str, StateId> = HashMap::new();
        for d in decls {
            if self.langs.contains_key(&d.name) || states.contains_key(d.name.as_str()) {
                return Err(err(
                    d.span,
                    format!("language '{}' is already defined", d.name),
                ));
            }
            states.insert(&d.name, b.state(&d.name));
        }
        for d in decls {
            let me = states[d.name.as_str()];
            for r in &d.rules {
                let (ctor, guard, lookahead) =
                    self.lower_lang_rule(&ty, r, &|name| states.get(name).copied())?;
                b.rule(me, ctor, guard, lookahead);
            }
        }
        let sta = b.build(StateId(0));
        for d in decls {
            self.langs.insert(
                d.name.clone(),
                LangEntry {
                    ty: ty_name.to_string(),
                    sta: sta.clone().with_initial(states[d.name.as_str()]),
                },
            );
        }
        Ok(())
    }

    /// Lowers a pattern + guard + given into STA rule components.
    /// `local` resolves a language name to a state in the automaton being
    /// built (used for the mutually recursive `lang` groups); names not
    /// found locally are an error here (`trans` uses its own path).
    fn lower_lang_rule(
        &self,
        ty: &TreeType,
        r: &LangRule,
        local: &dyn Fn(&str) -> Option<StateId>,
    ) -> Result<
        (
            fast_trees::CtorId,
            Formula,
            Vec<std::collections::BTreeSet<StateId>>,
        ),
        Diagnostic,
    > {
        let ctor = ty
            .ctor_id(&r.ctor)
            .ok_or_else(|| err(r.span, format!("unknown constructor '{}'", r.ctor)))?;
        let rank = ty.rank(ctor);
        if r.vars.len() != rank {
            return Err(err(
                r.span,
                format!(
                    "constructor '{}' has rank {rank}, but {} variables are bound",
                    r.ctor,
                    r.vars.len()
                ),
            ));
        }
        let guard = match &r.guard {
            Some(e) => lower_formula(ty.sig(), e)?,
            None => Formula::True,
        };
        let mut lookahead = vec![std::collections::BTreeSet::new(); rank];
        for (lang, var) in &r.given {
            let idx = r
                .vars
                .iter()
                .position(|v| v == var)
                .ok_or_else(|| err(r.span, format!("unbound variable '{var}' in given")))?;
            let state = local(lang)
                .ok_or_else(|| err(r.span, format!("unknown language '{lang}' in given clause")))?;
            lookahead[idx].insert(state);
        }
        Ok((ctor, guard, lookahead))
    }

    /// Resolves the `X` of `trans f : X -> Y` (or `def f : X -> Y`) to
    /// its underlying tree type. Tree type names take precedence; a
    /// previously declared language name pins the transformation to a
    /// [`Contract`] over the language's tree type.
    fn resolve_io(&self, name: &str, span: Span) -> Result<(String, Option<String>), Diagnostic> {
        if self.types.contains_key(name) {
            return Ok((name.to_string(), None));
        }
        if let Some(entry) = self.langs.get(name) {
            return Ok((entry.ty.clone(), Some(name.to_string())));
        }
        Err(err(span, format!("unknown tree type '{name}'")))
    }

    fn record_contract(
        &mut self,
        name: &str,
        ty: &str,
        lang_in: Option<String>,
        lang_out: Option<String>,
        span: Span,
    ) {
        if lang_in.is_some() || lang_out.is_some() {
            self.contracts.push(Contract {
                trans: name.to_string(),
                ty: ty.to_string(),
                input: lang_in,
                output: lang_out,
                span,
            });
        }
    }

    fn trans_decl(&mut self, t: &TransDecl) -> Result<(), Diagnostic> {
        if self.trans.contains_key(&t.name) {
            return Err(err(
                t.span,
                format!("transformation '{}' is already defined", t.name),
            ));
        }
        let (ty_name, lang_in) = self.resolve_io(&t.ty_in, t.span)?;
        let (ty_out_name, lang_out) = self.resolve_io(&t.ty_out, t.span)?;
        if ty_name != ty_out_name {
            return Err(err(
                t.span,
                "input and output tree types must coincide (use a combined tree type, §3.3)",
            ));
        }
        let (ty, alg) = self.get_type(&ty_name, t.span)?;
        let mut b = SttrBuilder::new(ty.clone(), alg.clone());
        let me = b.state(&t.name);
        // Lazily created helpers.
        let mut identity: Option<StateId> = None;
        let mut absorbed_trans: HashMap<String, StateId> = HashMap::new();
        let mut absorbed_langs: HashMap<String, StateId> = HashMap::new();

        // Pre-absorb all languages referenced in given clauses.
        for r in &t.rules {
            for (lang, _) in &r.lhs.given {
                if absorbed_langs.contains_key(lang) {
                    continue;
                }
                let entry = self.langs.get(lang).ok_or_else(|| {
                    err(
                        r.lhs.span,
                        format!(
                            "unknown language '{lang}' in given clause \
                             (languages must be defined before the trans block)"
                        ),
                    )
                })?;
                if entry.ty != ty_name {
                    return Err(err(
                        r.lhs.span,
                        format!(
                            "language '{lang}' is over type '{}', not '{}'",
                            entry.ty, ty_name
                        ),
                    ));
                }
                let offset = b.absorb_lookahead(&entry.sta);
                absorbed_langs.insert(lang.clone(), StateId(entry.sta.initial().0 + offset));
            }
        }

        let mut compiled_rules = Vec::new();
        for r in &t.rules {
            let ctor = ty
                .ctor_id(&r.lhs.ctor)
                .ok_or_else(|| err(r.lhs.span, format!("unknown constructor '{}'", r.lhs.ctor)))?;
            let rank = ty.rank(ctor);
            if r.lhs.vars.len() != rank {
                return Err(err(
                    r.lhs.span,
                    format!(
                        "constructor '{}' has rank {rank}, but {} variables are bound",
                        r.lhs.ctor,
                        r.lhs.vars.len()
                    ),
                ));
            }
            let guard = match &r.lhs.guard {
                Some(e) => lower_formula(ty.sig(), e)?,
                None => Formula::True,
            };
            let mut lookahead = vec![std::collections::BTreeSet::new(); rank];
            for (lang, var) in &r.lhs.given {
                let idx =
                    r.lhs.vars.iter().position(|v| v == var).ok_or_else(|| {
                        err(r.lhs.span, format!("unbound variable '{var}' in given"))
                    })?;
                lookahead[idx].insert(absorbed_langs[lang]);
            }
            let out = self.lower_tout(
                &ty,
                &t.name,
                me,
                &r.lhs.vars,
                &r.out,
                &mut b,
                &mut identity,
                &mut absorbed_trans,
            )?;
            compiled_rules.push((ctor, guard, lookahead, out));
        }
        for (ctor, guard, lookahead, out) in compiled_rules {
            b.rule(me, ctor, guard, lookahead, out);
        }
        let sttr = b.build(me);
        self.trans.insert(
            t.name.clone(),
            TransEntry {
                ty: ty_name.clone(),
                sttr,
            },
        );
        self.record_contract(&t.name, &ty_name, lang_in, lang_out, t.span);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_tout(
        &self,
        ty: &Arc<TreeType>,
        self_name: &str,
        me: StateId,
        vars: &[String],
        out: &TOut,
        b: &mut SttrBuilder,
        identity: &mut Option<StateId>,
        absorbed: &mut HashMap<String, StateId>,
    ) -> Result<Out<LabelAlg>, Diagnostic> {
        match out {
            TOut::Var(v, span) => {
                let idx = var_index(vars, v, *span)?;
                let id = self.ensure_identity(ty, b, identity);
                Ok(Out::Call(id, idx))
            }
            TOut::Call(name, v, span) => {
                // Disambiguation: `(c y)` where c is a constructor is an
                // output node with one copied child.
                if let Some(ctor) = ty.ctor_id(name) {
                    if ty.rank(ctor) == 1 && ty.sig().is_unit() {
                        let idx = var_index(vars, v, *span)?;
                        let id = self.ensure_identity(ty, b, identity);
                        return Ok(Out::node(
                            ctor,
                            LabelFn::identity(0),
                            vec![Out::Call(id, idx)],
                        ));
                    }
                }
                let idx = var_index(vars, v, *span)?;
                let state = self.resolve_trans_state(self_name, me, name, *span, b, absorbed)?;
                Ok(Out::Call(state, idx))
            }
            TOut::Node {
                ctor,
                attrs,
                children,
                span,
            } => {
                let cid = ty
                    .ctor_id(ctor)
                    .ok_or_else(|| err(*span, format!("unknown constructor '{ctor}'")))?;
                if children.len() != ty.rank(cid) {
                    return Err(err(
                        *span,
                        format!(
                            "constructor '{ctor}' has rank {}, but {} children are given",
                            ty.rank(cid),
                            children.len()
                        ),
                    ));
                }
                if attrs.len() != ty.sig().arity() {
                    return Err(err(
                        *span,
                        format!(
                            "type '{}' has {} attribute(s), but {} are given",
                            ty.name(),
                            ty.sig().arity(),
                            attrs.len()
                        ),
                    ));
                }
                let mut terms = Vec::with_capacity(attrs.len());
                for (i, a) in attrs.iter().enumerate() {
                    let term = lower_term(ty.sig(), a)?;
                    let expected = ty.sig().sort(i);
                    let actual = term.sort(ty.sig());
                    if actual != Some(expected) {
                        return Err(err(
                            a.span(),
                            format!(
                                "attribute {} of '{}' has sort {expected}, but the \
                                 expression has a different sort",
                                ty.sig().name(i),
                                ty.name()
                            ),
                        ));
                    }
                    terms.push(term);
                }
                let mut kids = Vec::with_capacity(children.len());
                for c in children {
                    kids.push(self.lower_tout(ty, self_name, me, vars, c, b, identity, absorbed)?);
                }
                Ok(Out::node(cid, LabelFn::new(terms), kids))
            }
        }
    }

    fn ensure_identity(
        &self,
        ty: &Arc<TreeType>,
        b: &mut SttrBuilder,
        identity: &mut Option<StateId>,
    ) -> StateId {
        if let Some(id) = *identity {
            return id;
        }
        let id = b.state("id");
        for ctor in ty.ctor_ids() {
            let kids = (0..ty.rank(ctor)).map(|i| Out::Call(id, i)).collect();
            b.plain_rule(
                id,
                ctor,
                Formula::True,
                Out::node(ctor, LabelFn::identity(ty.sig().arity()), kids),
            );
        }
        *identity = Some(id);
        id
    }

    fn resolve_trans_state(
        &self,
        self_name: &str,
        me: StateId,
        name: &str,
        span: Span,
        b: &mut SttrBuilder,
        absorbed: &mut HashMap<String, StateId>,
    ) -> Result<StateId, Diagnostic> {
        if name == self_name {
            return Ok(me);
        }
        if let Some(&s) = absorbed.get(name) {
            return Ok(s);
        }
        let entry = self.trans.get(name).ok_or_else(|| {
            err(
                span,
                format!(
                    "unknown transformation '{name}' \
                     (forward references across trans blocks are not supported)"
                ),
            )
        })?;
        let (offset, _) = b.absorb(&entry.sttr);
        let s = StateId(entry.sttr.initial().0 + offset);
        absorbed.insert(name.to_string(), s);
        Ok(s)
    }

    // ---- definitions ----

    fn def_lang(&mut self, d: &DefLangDecl) -> Result<(), Diagnostic> {
        if self.langs.contains_key(&d.name) {
            return Err(err(
                d.span,
                format!("language '{}' is already defined", d.name),
            ));
        }
        let (ty, sta) = self.eval_lexpr(&d.body)?;
        if ty != d.ty {
            return Err(err(
                d.span,
                format!(
                    "definition is over type '{ty}', but '{}' was declared",
                    d.ty
                ),
            ));
        }
        self.langs.insert(d.name.clone(), LangEntry { ty, sta });
        Ok(())
    }

    fn def_trans(&mut self, d: &DefTransDecl) -> Result<(), Diagnostic> {
        if self.trans.contains_key(&d.name) {
            return Err(err(
                d.span,
                format!("transformation '{}' is already defined", d.name),
            ));
        }
        let (ty_name, lang_in) = self.resolve_io(&d.ty_in, d.span)?;
        let (ty_out_name, lang_out) = self.resolve_io(&d.ty_out, d.span)?;
        if ty_name != ty_out_name {
            return Err(err(
                d.span,
                "input and output tree types must coincide (combined tree type, §3.3)",
            ));
        }
        let (ty, sttr) = self.eval_texpr(&d.body)?;
        if ty != ty_name {
            return Err(err(
                d.span,
                format!("definition is over type '{ty}', but '{ty_name}' was declared"),
            ));
        }
        self.trans.insert(d.name.clone(), TransEntry { ty, sttr });
        self.record_contract(&d.name, &ty_name, lang_in, lang_out, d.span);
        Ok(())
    }

    fn tree_decl(&mut self, d: &TreeDecl) -> Result<(), Diagnostic> {
        if self.trees.contains_key(&d.name) {
            return Err(err(d.span, format!("tree '{}' is already defined", d.name)));
        }
        let (ty, tree) = self.eval_tree_expr(&d.body)?;
        if ty != d.ty {
            return Err(err(
                d.span,
                format!("tree is over type '{ty}', but '{}' was declared", d.ty),
            ));
        }
        self.trees.insert(d.name.clone(), (ty, tree));
        Ok(())
    }

    // ---- expression evaluation ----

    fn eval_lexpr(&self, e: &LExpr) -> Result<(String, Sta), Diagnostic> {
        match e {
            LExpr::Name(n, span) => self
                .langs
                .get(n)
                .map(|l| (l.ty.clone(), l.sta.clone()))
                .ok_or_else(|| err(*span, format!("unknown language '{n}'"))),
            LExpr::Intersect(a, b, span) => {
                let (ta, sa) = self.eval_lexpr(a)?;
                let (tb, sb) = self.eval_lexpr(b)?;
                same_type(&ta, &tb, *span)?;
                Ok((ta, intersect(&sa, &sb)))
            }
            LExpr::Union(a, b, span) => {
                let (ta, sa) = self.eval_lexpr(a)?;
                let (tb, sb) = self.eval_lexpr(b)?;
                same_type(&ta, &tb, *span)?;
                Ok((ta, union(&sa, &sb)))
            }
            LExpr::Complement(a, span) => {
                let (ta, sa) = self.eval_lexpr(a)?;
                Ok((ta, complement(&sa).map_err(|e| err(*span, e.to_string()))?))
            }
            LExpr::Difference(a, b, span) => {
                let (ta, sa) = self.eval_lexpr(a)?;
                let (tb, sb) = self.eval_lexpr(b)?;
                same_type(&ta, &tb, *span)?;
                Ok((
                    ta,
                    difference(&sa, &sb).map_err(|e| err(*span, e.to_string()))?,
                ))
            }
            LExpr::Minimize(a, span) => {
                let (ta, sa) = self.eval_lexpr(a)?;
                Ok((ta, minimize(&sa).map_err(|e| err(*span, e.to_string()))?))
            }
            LExpr::Domain(t, _span) => {
                let (tt, sttr) = self.eval_texpr(t)?;
                Ok((tt, sttr.domain()))
            }
            LExpr::Preimage(t, l, span) => {
                let (tt, sttr) = self.eval_texpr(t)?;
                let (tl, sta) = self.eval_lexpr(l)?;
                same_type(&tt, &tl, *span)?;
                Ok((
                    tt,
                    preimage(&sttr, &sta).map_err(|e| err(*span, e.to_string()))?,
                ))
            }
        }
    }

    fn eval_texpr(&self, e: &TExpr) -> Result<(String, Sttr), Diagnostic> {
        match e {
            TExpr::Name(n, span) => self
                .trans
                .get(n)
                .map(|t| (t.ty.clone(), t.sttr.clone()))
                .ok_or_else(|| err(*span, format!("unknown transformation '{n}'"))),
            TExpr::Compose(a, b, span) => {
                let (ta, sa) = self.eval_texpr(a)?;
                let (tb, sb) = self.eval_texpr(b)?;
                same_type(&ta, &tb, *span)?;
                Ok((
                    ta,
                    // Exactness is surfaced by `fastc check` (FA006), so
                    // the paper's over-approximating semantics stays
                    // available to programs that want it.
                    compose(&sa, &sb)
                        .map_err(|e| err(*span, e.to_string()))?
                        .sttr,
                ))
            }
            TExpr::Restrict(t, l, span) => {
                let (tt, st) = self.eval_texpr(t)?;
                let (tl, sl) = self.eval_lexpr(l)?;
                same_type(&tt, &tl, *span)?;
                Ok((
                    tt,
                    restrict(&st, &sl).map_err(|e| err(*span, e.to_string()))?,
                ))
            }
            TExpr::RestrictOut(t, l, span) => {
                let (tt, st) = self.eval_texpr(t)?;
                let (tl, sl) = self.eval_lexpr(l)?;
                same_type(&tt, &tl, *span)?;
                Ok((
                    tt,
                    restrict_out(&st, &sl).map_err(|e| err(*span, e.to_string()))?,
                ))
            }
        }
    }

    fn eval_tree_expr(&self, e: &TreeExpr) -> Result<(String, Tree), Diagnostic> {
        match e {
            TreeExpr::Name(n, span) => self
                .trees
                .get(n)
                .cloned()
                .ok_or_else(|| err(*span, format!("unknown tree '{n}'"))),
            TreeExpr::Node {
                ctor,
                attrs,
                children,
                span,
            } => {
                // Type inferred from the constructor name: find the unique
                // type owning it among children's types or all types.
                let mut kid_trees = Vec::new();
                let mut ty_name: Option<String> = None;
                for c in children {
                    let (t, tree) = self.eval_tree_expr(c)?;
                    if let Some(prev) = &ty_name {
                        same_type(prev, &t, *span)?;
                    }
                    ty_name = Some(t);
                    kid_trees.push(tree);
                }
                let ty_name = match ty_name {
                    Some(t) => t,
                    None => {
                        // Leaf: search for a type owning this constructor.
                        let owners: Vec<&String> = self
                            .types
                            .iter()
                            .filter(|(_, ty)| ty.ctor_id(ctor).is_some())
                            .map(|(n, _)| n)
                            .collect();
                        match owners.as_slice() {
                            [one] => (*one).clone(),
                            [] => {
                                return Err(err(
                                    *span,
                                    format!("no type declares constructor '{ctor}'"),
                                ))
                            }
                            _ => {
                                return Err(err(
                                    *span,
                                    format!("constructor '{ctor}' is ambiguous between types"),
                                ))
                            }
                        }
                    }
                };
                let (ty, _) = self.get_type(&ty_name, *span)?;
                let cid = ty
                    .ctor_id(ctor)
                    .ok_or_else(|| err(*span, format!("unknown constructor '{ctor}'")))?;
                if kid_trees.len() != ty.rank(cid) {
                    return Err(err(
                        *span,
                        format!(
                            "constructor '{ctor}' has rank {}, got {} children",
                            ty.rank(cid),
                            kid_trees.len()
                        ),
                    ));
                }
                if attrs.len() != ty.sig().arity() {
                    return Err(err(
                        *span,
                        format!(
                            "type '{}' has {} attribute(s), but {} are given",
                            ty.name(),
                            ty.sig().arity(),
                            attrs.len()
                        ),
                    ));
                }
                let mut values = Vec::new();
                for a in attrs {
                    let term = lower_term(ty.sig(), a)?;
                    if !term.is_ground() {
                        return Err(err(a.span(), "tree attribute expressions must be constant"));
                    }
                    values.push(
                        term.eval(&Label::unit())
                            .map_err(|e| err(a.span(), e.to_string()))?,
                    );
                }
                Ok((ty_name, Tree::new(cid, Label::new(values), kid_trees)))
            }
            TreeExpr::Apply(t, tr, span) => {
                let (tt, sttr) = self.eval_texpr(t)?;
                let (ttr, tree) = self.eval_tree_expr(tr)?;
                same_type(&tt, &ttr, *span)?;
                let mut outs = sttr.run(&tree).map_err(|e| err(*span, e.to_string()))?;
                if outs.is_empty() {
                    return Err(err(*span, "the transformation produced no output"));
                }
                Ok((tt, outs.swap_remove(0)))
            }
            TreeExpr::GetWitness(l, span) => {
                let (tl, sta) = self.eval_lexpr(l)?;
                match witness(&sta).map_err(|e| err(*span, e.to_string()))? {
                    Some(t) => Ok((tl, t)),
                    None => Err(err(*span, "the language is empty; no witness exists")),
                }
            }
        }
    }

    fn assert_decl(&mut self, a: &AssertDecl) -> Result<(), Diagnostic> {
        let (decided, description, counterexample) = match &a.body {
            Assertion::IsEmptyLang(l) => match l {
                // A bare name may actually denote a transformation
                // (`(is-empty T)` in the grammar).
                LExpr::Name(n, span)
                    if !self.langs.contains_key(n) && self.trans.contains_key(n) =>
                {
                    let domain = self.trans[n].sttr.domain();
                    assert_empty(&domain, format!("is-empty {n}"), *span)?
                }
                _ => {
                    let (_, sta) = self.eval_lexpr(l)?;
                    assert_empty(&sta, "is-empty (language)".to_string(), l.span())?
                }
            },
            Assertion::IsEmptyTrans(t) => {
                let (_, sttr) = self.eval_texpr(t)?;
                assert_empty(&sttr.domain(), "is-empty (transducer)".to_string(), a.span)?
            }
            Assertion::LangEq(x, y) => {
                let (tx, sx) = self.eval_lexpr(x)?;
                let (ty_, sy) = self.eval_lexpr(y)?;
                same_type(&tx, &ty_, a.span)?;
                let verdict = equivalence(&sx, &sy).map_err(|e| err(a.span, e.to_string()))?;
                let cx = verdict
                    .counterexample()
                    .map(|t| t.display(&self.types[&tx]).to_string());
                (Ok(verdict.holds()), "language equivalence".to_string(), cx)
            }
            Assertion::Member(tr, l) => {
                let (tt, tree) = self.eval_tree_expr(tr)?;
                let (tl, sta) = self.eval_lexpr(l)?;
                same_type(&tt, &tl, a.span)?;
                (Ok(sta.accepts(&tree)), "membership".to_string(), None)
            }
            Assertion::TypeCheck(l1, t, l2) => {
                let (t1, s1) = self.eval_lexpr(l1)?;
                let (tt, sttr) = self.eval_texpr(t)?;
                let (t2, s2) = self.eval_lexpr(l2)?;
                same_type(&t1, &tt, a.span)?;
                same_type(&tt, &t2, a.span)?;
                let (decided, cx) = match check_pipeline(&[&sttr], Some(&s1), &s2) {
                    PipelineOutcome::Satisfied => (Ok(true), None),
                    PipelineOutcome::Violated(v) => (
                        Ok(false),
                        Some(v.input.display(&self.types[&t1]).to_string()),
                    ),
                    PipelineOutcome::Unknown(reason) => (Err(reason), None),
                };
                (decided, "type-check".to_string(), cx)
            }
        };
        self.report.assertions.push(AssertionResult {
            span: a.span,
            description,
            expected: a.expected,
            actual: decided.as_ref().is_ok_and(|&b| b),
            counterexample,
            undecided: decided.err(),
        });
        Ok(())
    }
}

/// An `is-empty` assertion's outcome (`Err` with the reason when
/// undecided) and counterexample, from one [`emptiness`] call on `sta`'s
/// designated language.
fn assert_empty(sta: &Sta, description: String, span: Span) -> Result<Decided, Diagnostic> {
    let root = [sta.initial()].into();
    let (decided, cx) = match emptiness(sta, &root).map_err(|e| err(span, e.to_string()))? {
        Verdict::Holds => (Ok(true), None),
        Verdict::Fails(Some(t)) => (Ok(false), Some(t.display(sta.ty()).to_string())),
        Verdict::Fails(None) => (Err(NO_MEMBER.to_string()), None),
    };
    Ok((decided, description, cx))
}

/// An assertion's truth value (`Err` with the reason when undecided),
/// description and counterexample.
type Decided = (Result<bool, String>, String, Option<String>);

const NO_MEMBER: &str =
    "the language is not provably empty, but no member could be constructed from it";

fn same_type(a: &str, b: &str, span: Span) -> Result<(), Diagnostic> {
    if a == b {
        Ok(())
    } else {
        Err(err(
            span,
            format!("operands are over different tree types '{a}' and '{b}'"),
        ))
    }
}

fn var_index(vars: &[String], v: &str, span: Span) -> Result<usize, Diagnostic> {
    vars.iter()
        .position(|x| x == v)
        .ok_or_else(|| err(span, format!("unbound variable '{v}'")))
}

/// Lowers an attribute expression to a [`Term`].
pub(crate) fn lower_term(sig: &LabelSig, e: &Expr) -> Result<Term, Diagnostic> {
    Ok(match e {
        Expr::Attr(name, span) => {
            let idx = sig
                .field_index(name)
                .ok_or_else(|| err(*span, format!("unknown attribute '{name}'")))?;
            Term::field(idx)
        }
        Expr::Int(n, _) => Term::int(*n),
        Expr::Str(s, _) => Term::str(s),
        Expr::Bool(b, _) => Term::bool(*b),
        Expr::Char(c, _) => Term::char(*c),
        Expr::Bin(op, a, b, span) => {
            let ta = lower_term(sig, a)?;
            match op {
                BinOp::Add => ta.add(lower_term(sig, b)?),
                BinOp::Sub => ta.sub(lower_term(sig, b)?),
                BinOp::Mul => ta.mul(lower_term(sig, b)?),
                BinOp::Mod | BinOp::Div => {
                    let divisor =
                        match lower_term(sig, b)?.simplify() {
                            Term::Lit(fast_smt::Value::Int(n)) if n > 0 && n <= u32::MAX as i64 => {
                                n as u32
                            }
                            _ => return Err(err(
                                *span,
                                "the divisor of '%' and '/' must be a positive integer constant",
                            )),
                        };
                    if *op == BinOp::Mod {
                        ta.modulo(divisor)
                    } else {
                        ta.div(divisor)
                    }
                }
                _ => {
                    return Err(err(
                        *span,
                        "comparison operators produce Bool; expected a value expression",
                    ))
                }
            }
        }
        Expr::Not(_, span) | Expr::StrTest(_, _, _, span) => {
            return Err(err(
                *span,
                "Boolean expressions cannot be used as attribute values here",
            ))
        }
    })
}

/// Lowers an attribute expression of sort `Bool` to a [`Formula`].
pub(crate) fn lower_formula(sig: &LabelSig, e: &Expr) -> Result<Formula, Diagnostic> {
    Ok(match e {
        Expr::Bool(b, _) => {
            if *b {
                Formula::True
            } else {
                Formula::False
            }
        }
        Expr::Attr(name, span) => {
            let idx = sig
                .field_index(name)
                .ok_or_else(|| err(*span, format!("unknown attribute '{name}'")))?;
            if sig.sort(idx) != Sort::Bool {
                return Err(err(
                    *span,
                    format!("attribute '{name}' is not of sort Bool"),
                ));
            }
            Formula::atom(Atom::BoolTerm(Term::field(idx)))
        }
        Expr::Not(inner, _) => lower_formula(sig, inner)?.not(),
        Expr::Bin(BinOp::And, a, b, _) => lower_formula(sig, a)?.and(lower_formula(sig, b)?),
        Expr::Bin(BinOp::Or, a, b, _) => lower_formula(sig, a)?.or(lower_formula(sig, b)?),
        Expr::Bin(op, a, b, span) => {
            let cmp = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Ne => CmpOp::Ne,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                BinOp::Ge => CmpOp::Ge,
                _ => {
                    return Err(err(
                        *span,
                        "arithmetic expression used where a Bool guard is expected",
                    ))
                }
            };
            let ta = lower_term(sig, a)?;
            let tb = lower_term(sig, b)?;
            let (sa, sb) = (ta.sort(sig), tb.sort(sig));
            if sa.is_none() || sa != sb {
                return Err(err(*span, "comparison operands have mismatched sorts"));
            }
            if matches!(cmp, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
                && !matches!(sa, Some(Sort::Int) | Some(Sort::Char))
            {
                return Err(err(
                    *span,
                    "ordering comparisons are only supported for Int and Char",
                ));
            }
            Formula::cmp(cmp, ta, tb)
        }
        Expr::StrTest(kind, arg, lit, span) => {
            let t = lower_term(sig, arg)?;
            if t.sort(sig) != Some(Sort::Str) {
                return Err(err(*span, "string test applied to a non-string expression"));
            }
            let atom = match kind {
                StrTestKind::StartsWith => Atom::StrPrefix(t, lit.clone()),
                StrTestKind::EndsWith => Atom::StrSuffix(t, lit.clone()),
                StrTestKind::Contains => Atom::StrContains(t, lit.clone()),
            };
            Formula::atom(atom)
        }
        Expr::Int(_, span) | Expr::Str(_, span) | Expr::Char(_, span) => {
            return Err(err(
                *span,
                "value expression used where a Bool guard is expected",
            ))
        }
    })
}
