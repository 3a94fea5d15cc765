//! The translation validator: re-derives every claim an extraction makes.
//!
//! [`crate::extract::apply`] asserts, implicitly, that the rewrite it
//! performs is sound. This module checks those claims *statically and
//! independently* after the fact, against the programs before and after
//! the rewrite:
//!
//! * **V101** — the candidate's `saved` figure matches both the shared
//!   cost model and the actual instruction-count delta;
//! * **V102** — the fragment body is a dependence-preserving
//!   linearization of each occurrence, and each occurrence is convex
//!   (no dependence path leaves the fragment and re-enters it);
//! * **V103** — nothing the fragment clobbers beyond what the replaced
//!   instructions clobbered (in practice: `lr`, written by the inserted
//!   `bl`) is live after any rewritten site, per interprocedural
//!   liveness with call summaries;
//! * **V104** — the rewritten program survives an encode → decode →
//!   encode round trip byte-identically;
//! * **V105** — the new fragment function has exactly the shape the
//!   [`ExtractionKind`] promises (wrap, body, return) and the number of
//!   rewritten sites equals the number of occurrences;
//! * **V107** — every MEM dependence the detection-side alias analysis
//!   dropped ([`Candidate::relaxed`]) is re-derived here by running the
//!   [`gpa_verify::absint`] interpreter from scratch on the pre-rewrite
//!   program; a claim this validator cannot prove disjoint itself — or
//!   any claim at all under [`AliasLevel::Off`] — rejects the rewrite.
//!   Only re-derived pairs are exempted from the memory component of the
//!   dependence checks above.
//!
//! The validator shares no code with the extractor: dependences are
//! re-derived from [`Item::effects`], liveness comes from
//! [`gpa_verify`]'s dataflow engine, and the expected fragment shape is
//! reconstructed from the [`Candidate`] alone. A bug in either side
//! surfaces as a disagreement.

use std::collections::{HashMap, HashSet};

use gpa_arm::defuse::{mem_conflict, reg_or_flag_conflict, Effects};
use gpa_arm::reg::RegSet;
use gpa_arm::Reg;
use gpa_cfg::{decode_image, encode_program, Item, Program};
use gpa_verify::{
    absint, lint_program, AbsEnv, AbsInt, CallGraph, Code, Diagnostic, FnCfg, FnSummary, LiveState,
    Liveness, Location, SummaryTransfer,
};

use crate::candidate::{Candidate, ExtractionKind};
use crate::cost;
use crate::optimizer::AliasLevel;

/// Claims the validator re-derived, as `(function, earlier, later)`
/// absolute item-index triples; only these pairs are exempt from the
/// memory component of the dependence checks.
type VerifiedClaims = HashSet<(usize, usize, usize)>;

/// When the optimizer re-validates its own rewrites.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValidateLevel {
    /// Trust the extractor; no validation.
    Off,
    /// Lint and round-trip the final program once, after the fixpoint.
    Final,
    /// Validate every extraction round against the program it rewrote,
    /// plus the final checks.
    EveryRound,
}

impl ValidateLevel {
    /// Parses a level's command-line name: `off`, `final` or
    /// `every-round` (case-sensitive).
    pub fn parse(s: &str) -> Option<ValidateLevel> {
        match s {
            "off" => Some(ValidateLevel::Off),
            "final" => Some(ValidateLevel::Final),
            "every-round" => Some(ValidateLevel::EveryRound),
            _ => None,
        }
    }
}

impl Default for ValidateLevel {
    /// [`ValidateLevel::EveryRound`] in debug builds, [`ValidateLevel::Off`]
    /// in release builds — mirroring the `debug_assert!` economics the
    /// validator replaces.
    fn default() -> ValidateLevel {
        if cfg!(debug_assertions) {
            ValidateLevel::EveryRound
        } else {
            ValidateLevel::Off
        }
    }
}

/// Validates one applied extraction: `before` is the program the
/// candidate was detected on, `after` the program [`crate::extract::apply`]
/// produced, `frag_name` the new fragment function's name.
///
/// Returns every violated claim as a [`Diagnostic`]; an empty vector
/// means the rewrite checks out.
pub fn validate_extraction(
    before: &Program,
    after: &Program,
    candidate: &Candidate,
    frag_name: &str,
) -> Vec<Diagnostic> {
    validate_extraction_with(before, after, candidate, frag_name, AliasLevel::Off)
}

/// [`validate_extraction`] for a candidate detected under `alias`: the
/// candidate's relaxed-MEM claims are re-derived first (V107), and only
/// claims that check out are honored by the dependence checks.
pub fn validate_extraction_with(
    before: &Program,
    after: &Program,
    candidate: &Candidate,
    frag_name: &str,
    alias: AliasLevel,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_savings(before, after, candidate, &mut diags);
    let verified = check_alias_claims(before, candidate, alias, &mut diags);
    check_occurrences(before, candidate, &verified, &mut diags);
    check_fragment_shape(after, candidate, frag_name, &mut diags);
    check_live_clobbers(after, candidate, frag_name, &mut diags);
    diags
}

/// V107: re-derives every relaxed-MEM claim with a fresh run of the
/// abstract interpreter over the *pre-rewrite* program. Returns the
/// claims that held; each failure (and any claim at all when alias
/// analysis is off) is reported as an error.
fn check_alias_claims(
    before: &Program,
    candidate: &Candidate,
    alias: AliasLevel,
    diags: &mut Vec<Diagnostic>,
) -> VerifiedClaims {
    let mut verified = VerifiedClaims::new();
    if candidate.relaxed.is_empty() {
        return verified;
    }
    if alias == AliasLevel::Off {
        diags.push(Diagnostic::error(
            Code::AliasUnsound,
            Location::program(),
            format!(
                "candidate carries {} relaxed-MEM claim(s) but alias analysis is off",
                candidate.relaxed.len()
            ),
        ));
        return verified;
    }
    let graph = CallGraph::build(before);
    let env = AbsEnv::build(before, &graph);
    let mut analyses: HashMap<usize, AbsInt> = HashMap::new();
    for claim in &candidate.relaxed {
        let Some(f) = before.functions.get(claim.function) else {
            diags.push(Diagnostic::error(
                Code::AliasUnsound,
                Location::program(),
                format!(
                    "relaxed-MEM claim references function #{} which does not exist",
                    claim.function
                ),
            ));
            continue;
        };
        if claim.earlier >= claim.later || claim.later >= f.items.len() {
            diags.push(Diagnostic::error(
                Code::AliasUnsound,
                Location::function(&f.name),
                format!(
                    "relaxed-MEM claim ({}, {}) is unordered or out of range",
                    claim.earlier, claim.later
                ),
            ));
            continue;
        }
        let analysis = analyses
            .entry(claim.function)
            .or_insert_with(|| AbsInt::analyze(f, Some(&env)));
        let footprint = |idx: usize| {
            let state = analysis.before.get(idx)?.as_ref()?;
            absint::resolved_accesses(state, &f.items[idx], Some(&env))
        };
        let (Some(a), Some(b)) = (footprint(claim.earlier), footprint(claim.later)) else {
            diags.push(Diagnostic::error(
                Code::AliasUnsound,
                Location::item(&f.name, claim.later),
                format!(
                    "relaxed-MEM claim ({}, {}): the validator cannot resolve both \
                     accesses to based byte intervals",
                    claim.earlier, claim.later
                ),
            ));
            continue;
        };
        if a.iter().all(|x| {
            b.iter()
                .all(|y| x.provably_disjoint(y, claim.earlier, claim.later))
        }) {
            verified.insert((claim.function, claim.earlier, claim.later));
        } else {
            diags.push(Diagnostic::error(
                Code::AliasUnsound,
                Location::item(&f.name, claim.later),
                format!(
                    "relaxed-MEM claim ({}, {}): the accesses are not provably disjoint",
                    claim.earlier, claim.later
                ),
            ));
        }
    }
    verified
}

/// Validates a whole program: the structural lints plus the
/// encode → decode → encode round trip (V104).
pub fn validate_program(program: &Program) -> Vec<Diagnostic> {
    let mut diags = lint_program(program);
    check_round_trip(program, &mut diags);
    diags
}

/// V101: the claimed savings must match the cost model *and* the actual
/// instruction-count delta.
fn check_savings(
    before: &Program,
    after: &Program,
    candidate: &Candidate,
    diags: &mut Vec<Diagnostic>,
) {
    let model = cost::saved_words(
        candidate.body_words(),
        candidate.occurrences.len(),
        candidate.kind,
    );
    if model != candidate.saved {
        diags.push(Diagnostic::error(
            Code::SavingsMismatch,
            Location::program(),
            format!(
                "candidate claims {} saved words but the cost model yields {model} \
                 ({} body words × {} occurrences, {:?})",
                candidate.saved,
                candidate.body_words(),
                candidate.occurrences.len(),
                candidate.kind
            ),
        ));
    }
    let actual = before.instruction_count() as i64 - after.instruction_count() as i64;
    if actual != candidate.saved {
        diags.push(Diagnostic::error(
            Code::SavingsMismatch,
            Location::program(),
            format!(
                "candidate claims {} saved words but the rewrite removed {actual}",
                candidate.saved
            ),
        ));
    }
}

/// V102: per occurrence, the body must be a dependence-preserving
/// linearization of the occurrence's items, the occurrence must be
/// convex within its region, and a cross-jump occurrence must be
/// exit-closed (the rewrite moves every later external item *before*
/// the fragment, so no dependence may point from a member to one).
///
/// Memory dependences between pairs in `verified` are exempt — those
/// are exactly the claims V107 re-derived.
fn check_occurrences(
    before: &Program,
    candidate: &Candidate,
    verified: &VerifiedClaims,
    diags: &mut Vec<Diagnostic>,
) {
    for (o, occ) in candidate.occurrences.iter().enumerate() {
        let Some(f) = before.functions.get(occ.function) else {
            diags.push(Diagnostic::error(
                Code::BadLinearization,
                Location::program(),
                format!(
                    "occurrence {o} references function #{} which does not exist",
                    occ.function
                ),
            ));
            continue;
        };
        let region_end = occ.region_start + occ.region_len;
        if region_end > f.items.len()
            || occ
                .item_indices
                .iter()
                .any(|&i| i < occ.region_start || i >= region_end)
        {
            diags.push(Diagnostic::error(
                Code::BadLinearization,
                Location::function(&f.name),
                format!("occurrence {o} has item indices outside its region"),
            ));
            continue;
        }
        let region = &f.items[occ.region_start..region_end];
        let members: Vec<usize> = occ
            .item_indices
            .iter()
            .map(|&i| i - occ.region_start)
            .collect();
        if members.len() != candidate.body.len() {
            diags.push(Diagnostic::error(
                Code::BadLinearization,
                Location::function(&f.name),
                format!(
                    "occurrence {o} has {} items but the body has {}",
                    members.len(),
                    candidate.body.len()
                ),
            ));
            continue;
        }
        // Project the verified claims onto this region: region-local
        // `(earlier, later)` pairs whose MEM dependence may be ignored.
        let exempt: HashSet<(usize, usize)> = verified
            .iter()
            .filter(|&&(func, _, later)| func == occ.function && later < region_end)
            .filter(|&&(_, earlier, _)| earlier >= occ.region_start)
            .map(|&(_, earlier, later)| (earlier - occ.region_start, later - occ.region_start))
            .collect();
        check_linearization(region, &members, &exempt, candidate, &f.name, o, diags);
        check_convexity(region, &members, &exempt, &f.name, o, diags);
        if candidate.kind == ExtractionKind::CrossJump {
            check_exit_closed(region, &members, &exempt, &f.name, o, diags);
        }
    }
}

/// The dependence predicate the occurrence checks share: `u < v` are
/// region positions; the pair depends unless its only conflict is the
/// memory one and `(u, v)` is an exempted (V107-verified) pair.
fn refined_conflict(
    effects: &[Effects],
    exempt: &HashSet<(usize, usize)>,
    u: usize,
    v: usize,
) -> bool {
    reg_or_flag_conflict(&effects[u], &effects[v])
        || (mem_conflict(&effects[u], &effects[v]) && !exempt.contains(&(u, v)))
}

/// Matches body items to occurrence items and checks the body order
/// preserves every dependence among them.
///
/// The greedy first-match assignment is complete: two identical items
/// always conflict with each other (they share defs, or flag writes),
/// so any dependence-valid linearization keeps equal items in their
/// original relative order — exactly what first-match picks.
fn check_linearization(
    region: &[Item],
    members: &[usize],
    exempt: &HashSet<(usize, usize)>,
    candidate: &Candidate,
    fname: &str,
    o: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let mut used = vec![false; members.len()];
    // Original region position matched to each body position.
    let mut matched: Vec<usize> = Vec::with_capacity(candidate.body.len());
    for (b, item) in candidate.body.iter().enumerate() {
        let Some(k) = (0..members.len()).find(|&k| !used[k] && region[members[k]] == *item) else {
            diags.push(Diagnostic::error(
                Code::BadLinearization,
                Location::function(fname),
                format!("occurrence {o} has no unmatched item equal to body item {b}"),
            ));
            return;
        };
        used[k] = true;
        matched.push(members[k]);
    }
    let effects: Vec<_> = region.iter().map(Item::effects).collect();
    for b in 0..matched.len() {
        for b2 in (b + 1)..matched.len() {
            let (u, v) = (matched[b], matched[b2]);
            // The body emits u before v; if the two depend on each other
            // the original order must agree.
            if u > v && refined_conflict(&effects, exempt, v, u) {
                diags.push(Diagnostic::error(
                    Code::BadLinearization,
                    Location::item(fname, u),
                    format!(
                        "occurrence {o}: body order swaps dependent items \
                         (region positions {v} and {u})"
                    ),
                ));
                return;
            }
        }
    }
}

/// Checks convexity (the paper's Fig. 9): no dependence path from a
/// fragment item through an external region item back into the fragment.
fn check_convexity(
    region: &[Item],
    members: &[usize],
    exempt: &HashSet<(usize, usize)>,
    fname: &str,
    o: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let n = region.len();
    let effects: Vec<_> = region.iter().map(Item::effects).collect();
    // Transitive closure of the dependence DAG (edges point forward in
    // region order), as bitsets: reach[u] = positions reachable from u.
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n];
    for u in (0..n).rev() {
        for v in (u + 1)..n {
            if refined_conflict(&effects, exempt, u, v) {
                reach[u][v / 64] |= 1 << (v % 64);
                let (head, tail) = reach.split_at_mut(v);
                for (w, bits) in tail[0].iter().enumerate() {
                    head[u][w] |= *bits;
                }
            }
        }
    }
    let is_member = {
        let mut set = vec![false; n];
        for &m in members {
            set[m] = true;
        }
        set
    };
    let bit = |bits: &[u64], i: usize| bits[i / 64] & (1 << (i % 64)) != 0;
    let (lo, hi) = (members[0], *members.last().expect("non-empty occurrence"));
    for w in lo..=hi {
        if is_member[w] {
            continue;
        }
        let from_fragment = members.iter().any(|&a| bit(&reach[a], w));
        let back_in = members.iter().any(|&c| bit(&reach[w], c));
        if from_fragment && back_in {
            diags.push(Diagnostic::error(
                Code::BadLinearization,
                Location::item(fname, w),
                format!(
                    "occurrence {o} is not convex: dependences flow out \
                     through region position {w} and back in"
                ),
            ));
            return;
        }
    }
}

/// Checks a cross-jump occurrence is exit-closed: the rewrite keeps the
/// region's external items in place and replaces the members with a
/// trailing tail-call, so every external item *after* a member ends up
/// executing *before* it. No dependence may point from a member to a
/// later external item.
fn check_exit_closed(
    region: &[Item],
    members: &[usize],
    exempt: &HashSet<(usize, usize)>,
    fname: &str,
    o: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let is_member = {
        let mut set = vec![false; region.len()];
        for &m in members {
            set[m] = true;
        }
        set
    };
    let effects: Vec<_> = region.iter().map(Item::effects).collect();
    for &u in members {
        for (w, &member) in is_member.iter().enumerate().skip(u + 1) {
            if !member && refined_conflict(&effects, exempt, u, w) {
                diags.push(Diagnostic::error(
                    Code::BadLinearization,
                    Location::item(fname, w),
                    format!(
                        "occurrence {o} is not exit-closed: fragment item at region \
                         position {u} has a dependence into later external position {w}"
                    ),
                ));
                return;
            }
        }
    }
}

/// V105: the fragment function must exist with the promised shape, and
/// the rewritten program must contain exactly one call site per
/// occurrence.
fn check_fragment_shape(
    after: &Program,
    candidate: &Candidate,
    frag_name: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(frag) = after.functions.iter().find(|f| f.name == frag_name) else {
        diags.push(Diagnostic::error(
            Code::BadFragmentShape,
            Location::program(),
            format!("fragment function `{frag_name}` was not created"),
        ));
        return;
    };
    let body = &candidate.body;
    let shape_ok = match candidate.kind {
        ExtractionKind::Procedure { lr_save: false } => {
            frag.items.len() == body.len() + 1
                && frag.items[..body.len()] == body[..]
                && frag.items[body.len()].is_return()
        }
        ExtractionKind::Procedure { lr_save: true } => {
            let wrap_ok =
                frag.items.len() == body.len() + 2 && frag.items[1..=body.len()] == body[..];
            wrap_ok && {
                let push = frag.items[0].effects();
                let pop = frag.items[body.len() + 1].effects();
                push.defs.contains(Reg::SP)
                    && push.uses.contains(Reg::LR)
                    && frag.items[body.len() + 1].is_return()
                    && pop.uses.contains(Reg::SP)
            }
        }
        ExtractionKind::CrossJump => {
            frag.items[..] == body[..] && frag.items.last().is_some_and(Item::is_return)
        }
    };
    if !shape_ok {
        diags.push(Diagnostic::error(
            Code::BadFragmentShape,
            Location::function(frag_name),
            format!(
                "fragment does not match its claimed {:?} shape around the body",
                candidate.kind
            ),
        ));
    }
    let is_site = |item: &Item| match candidate.kind {
        ExtractionKind::Procedure { .. } => {
            matches!(item, Item::Call { target, .. } if target == frag_name)
        }
        ExtractionKind::CrossJump => {
            matches!(item, Item::TailCall { target, .. } if target == frag_name)
        }
    };
    let sites: usize = after
        .functions
        .iter()
        .filter(|f| f.name != frag_name)
        .map(|f| f.items.iter().filter(|i| is_site(i)).count())
        .sum();
    if sites != candidate.occurrences.len() {
        diags.push(Diagnostic::error(
            Code::BadFragmentShape,
            Location::program(),
            format!(
                "{} call sites reference `{frag_name}` but the candidate \
                 claims {} occurrences",
                sites,
                candidate.occurrences.len()
            ),
        ));
    }
}

/// The registers an item sequence may clobber, with calls refined
/// through the program's summaries instead of the conservative barrier.
fn refined_defs(items: &[Item], graph: &CallGraph) -> (RegSet, bool) {
    let mut defs = RegSet::EMPTY;
    let mut flags = false;
    let callee = |name: &str| {
        graph
            .summary(name)
            .copied()
            .unwrap_or_else(FnSummary::conservative)
    };
    for item in items {
        match item {
            Item::Call { target, .. } => {
                defs.insert(Reg::LR);
                let s = callee(target);
                defs = defs.union(s.defs);
                flags |= s.writes_flags;
            }
            Item::TailCall { target, .. } => {
                let s = callee(target);
                defs = defs.union(s.defs);
                flags |= s.writes_flags;
            }
            Item::IndirectCall { .. } => {
                defs = defs.union(FnSummary::conservative().defs);
                flags = true;
            }
            other => {
                let fx = other.effects();
                defs = defs.union(fx.defs);
                flags |= fx.writes_flags;
            }
        }
    }
    defs.remove(Reg::PC);
    (defs, flags)
}

/// V103: at every rewritten site, the state the call clobbers *beyond*
/// what the replaced instructions clobbered must be dead.
///
/// For a procedure extraction the inserted `bl` always clobbers `lr`
/// (and an `lr`-saving wrap moves `sp`, but restores it — excluded).
/// Cross-jump sites never resume, so there is nothing live after them.
fn check_live_clobbers(
    after: &Program,
    candidate: &Candidate,
    frag_name: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if candidate.kind == ExtractionKind::CrossJump {
        return;
    }
    let graph = CallGraph::build(after);
    let (mut frag_defs, frag_flags) = match graph.summary(frag_name) {
        Some(s) => (s.defs, s.writes_flags),
        None => return, // Reported by the shape check.
    };
    frag_defs.insert(Reg::LR); // The bl at each site writes lr.
    let (body_defs, body_flags) = refined_defs(&candidate.body, &graph);
    let mut extra = frag_defs.difference(body_defs);
    if matches!(candidate.kind, ExtractionKind::Procedure { lr_save: true }) {
        // The push {lr} / pop {pc} wrap moves sp and restores it.
        extra.remove(Reg::SP);
    }
    let extra_flags = frag_flags && !body_flags;
    if extra.is_empty() && !extra_flags {
        return;
    }
    let transfer = SummaryTransfer::new(&graph);
    for f in &after.functions {
        if f.name == frag_name {
            continue;
        }
        let sites: Vec<usize> = f
            .items
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Item::Call { target, .. } if target == frag_name))
            .map(|(i, _)| i)
            .collect();
        if sites.is_empty() {
            continue;
        }
        let cfg = FnCfg::build(f);
        let live = Liveness::analyze(f, &cfg, &transfer, LiveState::EMPTY);
        for site in sites {
            let after_site = live.live_after(f, &cfg, &transfer, site);
            let clobbered = extra.intersection(after_site.regs);
            if !clobbered.is_empty() {
                diags.push(Diagnostic::error(
                    Code::LiveClobber,
                    Location::item(&f.name, site),
                    format!(
                        "call to `{frag_name}` clobbers live register(s) {clobbered} \
                         the replaced instructions left intact"
                    ),
                ));
            }
            if extra_flags && after_site.flags {
                diags.push(Diagnostic::error(
                    Code::LiveClobber,
                    Location::item(&f.name, site),
                    format!(
                        "call to `{frag_name}` clobbers the live condition flags \
                         the replaced instructions left intact"
                    ),
                ));
            }
        }
    }
}

/// V104: the program must survive encode → decode → encode with a
/// byte-identical image — i.e. its encoding is a fixpoint of the lift.
fn check_round_trip(program: &Program, diags: &mut Vec<Diagnostic>) {
    let image = match encode_program(program) {
        Ok(image) => image,
        Err(e) => {
            diags.push(Diagnostic::error(
                Code::RoundTrip,
                Location::program(),
                format!("program does not re-encode: {e}"),
            ));
            return;
        }
    };
    let lifted = match decode_image(&image) {
        Ok(p) => p,
        Err(e) => {
            diags.push(Diagnostic::error(
                Code::RoundTrip,
                Location::program(),
                format!("encoded image does not lift back: {e}"),
            ));
            return;
        }
    };
    match encode_program(&lifted) {
        Ok(again) if again == image => {}
        Ok(_) => diags.push(Diagnostic::error(
            Code::RoundTrip,
            Location::program(),
            "encode → decode → encode does not reproduce the image".to_owned(),
        )),
        Err(e) => diags.push(Diagnostic::error(
            Code::RoundTrip,
            Location::program(),
            format!("lifted program does not re-encode: {e}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use gpa_cfg::FunctionCode;
    use gpa_verify::has_errors;

    use crate::candidate::Occurrence;
    use crate::extract;

    fn insn(text: &str) -> Item {
        Item::Insn(text.parse().unwrap())
    }

    fn program(functions: Vec<FunctionCode>) -> Program {
        let entry = functions[0].name.clone();
        Program {
            functions,
            data: Vec::new(),
            data_symbols: Vec::new(),
            code_base: 0x8000,
            data_base: 0x2_0000,
            entry,
        }
    }

    fn func(name: &str, texts: &[&str]) -> FunctionCode {
        FunctionCode {
            name: name.into(),
            address_taken: false,
            items: texts.iter().map(|t| insn(t)).collect(),
            label_count: 0,
        }
    }

    /// Two lr-free functions sharing a 3-item block, plus the candidate
    /// extracting it as a plain procedure.
    fn shared_block_case() -> (Program, Candidate) {
        let block = ["ldr r3, [r0]", "add r3, r3, #1", "str r3, [r0]"];
        let wrap = |name: &str| {
            let mut items = vec![insn("push {r4, lr}")];
            items.extend(block.iter().map(|t| insn(t)));
            items.push(insn("pop {r4, pc}"));
            FunctionCode {
                name: name.into(),
                address_taken: false,
                items,
                label_count: 0,
            }
        };
        let p = program(vec![wrap("a"), wrap("b")]);
        let body: Vec<Item> = block.iter().map(|t| insn(t)).collect();
        let kind = ExtractionKind::Procedure { lr_save: false };
        let candidate = Candidate {
            saved: cost::saved_words(body.len(), 2, kind),
            body,
            occurrences: vec![
                Occurrence {
                    function: 0,
                    region_start: 0,
                    region_len: 5,
                    item_indices: vec![1, 2, 3],
                },
                Occurrence {
                    function: 1,
                    region_start: 0,
                    region_len: 5,
                    item_indices: vec![1, 2, 3],
                },
            ],
            kind,
            relaxed: Vec::new(),
        };
        (p, candidate)
    }

    fn applied(p: &Program, c: &Candidate) -> Program {
        let mut after = p.clone();
        extract::apply(&mut after, c, "__gpa_frag0").unwrap();
        after
    }

    #[test]
    fn sound_extraction_validates_clean() {
        let (p, c) = shared_block_case();
        let after = applied(&p, &c);
        let diags = validate_extraction(&p, &after, &c, "__gpa_frag0");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn wrong_savings_caught() {
        let (p, mut c) = shared_block_case();
        let after = applied(&p, &c);
        c.saved += 1;
        let diags = validate_extraction(&p, &after, &c, "__gpa_frag0");
        assert!(diags.iter().any(|d| d.code == Code::SavingsMismatch));
        assert!(has_errors(&diags));
    }

    #[test]
    fn scrambled_body_order_caught() {
        let (p, mut c) = shared_block_case();
        let after = applied(&p, &c);
        // `ldr` and `add` form a read-after-write pair; swapping them in
        // the body breaks the linearization claim.
        c.body.swap(0, 1);
        let diags = validate_extraction(&p, &after, &c, "__gpa_frag0");
        assert!(diags.iter().any(|d| d.code == Code::BadLinearization));
    }

    #[test]
    fn non_convex_occurrence_caught() {
        // r3 flows out of item 0 into external item 1 and back into
        // item 2 — the classic Fig. 9 rejection.
        let f = func(
            "f",
            &["ldr r3, [r1]", "add r4, r3, #1", "str r4, [r3]", "bx lr"],
        );
        let p = program(vec![f]);
        let c = Candidate {
            body: vec![insn("ldr r3, [r1]"), insn("str r4, [r3]")],
            occurrences: vec![Occurrence {
                function: 0,
                region_start: 0,
                region_len: 4,
                item_indices: vec![0, 2],
            }],
            kind: ExtractionKind::Procedure { lr_save: false },
            saved: 1,
            relaxed: Vec::new(),
        };
        let mut diags = Vec::new();
        check_occurrences(&p, &c, &VerifiedClaims::new(), &mut diags);
        assert!(diags.iter().any(|d| d.code == Code::BadLinearization));
    }

    #[test]
    fn missing_fragment_function_caught() {
        let (p, c) = shared_block_case();
        let mut after = applied(&p, &c);
        after.functions.pop();
        let diags = validate_extraction(&p, &after, &c, "__gpa_frag0");
        assert!(diags.iter().any(|d| d.code == Code::BadFragmentShape));
    }

    #[test]
    fn lr_live_after_site_caught() {
        // A leaf function keeps its entry lr live up to the `bx lr`;
        // inserting a bl there clobbers it.
        let block = ["ldr r3, [r0]", "add r3, r3, #1", "str r3, [r0]"];
        let leaf = |name: &str| {
            let mut items: Vec<Item> = block.iter().map(|t| insn(t)).collect();
            items.push(insn("bx lr"));
            FunctionCode {
                name: name.into(),
                address_taken: false,
                items,
                label_count: 0,
            }
        };
        let p = program(vec![leaf("a"), leaf("b")]);
        let body: Vec<Item> = block.iter().map(|t| insn(t)).collect();
        let kind = ExtractionKind::Procedure { lr_save: false };
        let c = Candidate {
            saved: cost::saved_words(body.len(), 2, kind),
            body,
            occurrences: vec![
                Occurrence {
                    function: 0,
                    region_start: 0,
                    region_len: 4,
                    item_indices: vec![0, 1, 2],
                },
                Occurrence {
                    function: 1,
                    region_start: 0,
                    region_len: 4,
                    item_indices: vec![0, 1, 2],
                },
            ],
            kind,
            relaxed: Vec::new(),
        };
        let after = applied(&p, &c);
        let diags = validate_extraction(&p, &after, &c, "__gpa_frag0");
        assert!(
            diags.iter().any(|d| d.code == Code::LiveClobber),
            "{diags:?}"
        );
    }

    #[test]
    fn cross_jump_validates_clean() {
        let tail = ["add r0, r0, #1", "pop {r4, pc}"];
        let build = |name: &str, lead: &str| {
            let mut items = vec![insn("push {r4, lr}"), insn(lead)];
            items.extend(tail.iter().map(|t| insn(t)));
            FunctionCode {
                name: name.into(),
                address_taken: false,
                items,
                label_count: 0,
            }
        };
        let p = program(vec![build("a", "mov r0, #1"), build("b", "mov r0, #2")]);
        let body: Vec<Item> = tail.iter().map(|t| insn(t)).collect();
        let c = Candidate {
            saved: cost::saved_words(body.len(), 2, ExtractionKind::CrossJump),
            body,
            occurrences: vec![
                Occurrence {
                    function: 0,
                    region_start: 0,
                    region_len: 4,
                    item_indices: vec![2, 3],
                },
                Occurrence {
                    function: 1,
                    region_start: 0,
                    region_len: 4,
                    item_indices: vec![2, 3],
                },
            ],
            kind: ExtractionKind::CrossJump,
            relaxed: Vec::new(),
        };
        let after = applied(&p, &c);
        let diags = validate_extraction(&p, &after, &c, "__gpa_frag0");
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// A function with two provably disjoint stack stores (entry-sp
    /// ranges [-8, -4) and [-4, 0)) and a load overlapping the first.
    fn stack_slots_fn() -> Program {
        program(vec![func(
            "f",
            &[
                "sub sp, sp, #8",
                "str r0, [sp]",
                "str r1, [sp, #4]",
                "ldr r2, [sp]",
                "add sp, sp, #8",
                "bx lr",
            ],
        )])
    }

    fn claim(function: usize, earlier: usize, later: usize) -> crate::candidate::RelaxedPair {
        crate::candidate::RelaxedPair {
            function,
            earlier,
            later,
        }
    }

    fn claim_only_candidate(relaxed: Vec<crate::candidate::RelaxedPair>) -> Candidate {
        Candidate {
            body: Vec::new(),
            occurrences: Vec::new(),
            kind: ExtractionKind::Procedure { lr_save: false },
            saved: 0,
            relaxed,
        }
    }

    #[test]
    fn disjoint_stack_claim_is_re_derived() {
        let p = stack_slots_fn();
        let c = claim_only_candidate(vec![claim(0, 1, 2)]);
        let mut diags = Vec::new();
        let verified = check_alias_claims(&p, &c, AliasLevel::Stack, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(verified.contains(&(0, 1, 2)));
    }

    #[test]
    fn overlapping_claim_rejected() {
        let p = stack_slots_fn();
        // Items 1 and 3 both touch [-8, -4): the claim is a lie.
        let c = claim_only_candidate(vec![claim(0, 1, 3)]);
        let mut diags = Vec::new();
        let verified = check_alias_claims(&p, &c, AliasLevel::Stack, &mut diags);
        assert!(verified.is_empty());
        assert!(diags.iter().any(|d| d.code == Code::AliasUnsound));
    }

    #[test]
    fn unresolvable_and_out_of_range_claims_rejected() {
        let p = stack_slots_fn();
        // Item 0 is not a memory access the interpreter can bound against
        // item 5 (`bx lr`), and (9, 3) is unordered.
        let c = claim_only_candidate(vec![claim(0, 9, 3), claim(7, 1, 2)]);
        let mut diags = Vec::new();
        let verified = check_alias_claims(&p, &c, AliasLevel::Stack, &mut diags);
        assert!(verified.is_empty());
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == Code::AliasUnsound)
                .count(),
            2
        );
    }

    #[test]
    fn any_claim_rejected_when_alias_off() {
        let p = stack_slots_fn();
        let c = claim_only_candidate(vec![claim(0, 1, 2)]);
        let mut diags = Vec::new();
        let verified = check_alias_claims(&p, &c, AliasLevel::Off, &mut diags);
        assert!(verified.is_empty());
        assert!(diags.iter().any(|d| d.code == Code::AliasUnsound));
    }

    #[test]
    fn verified_claim_permits_relaxed_linearization() {
        let p = stack_slots_fn();
        // Body emits the two stores swapped relative to region order:
        // only legal because their footprints are disjoint.
        let c = Candidate {
            body: vec![insn("str r1, [sp, #4]"), insn("str r0, [sp]")],
            occurrences: vec![Occurrence {
                function: 0,
                region_start: 0,
                region_len: 6,
                item_indices: vec![1, 2],
            }],
            kind: ExtractionKind::Procedure { lr_save: false },
            saved: 0,
            relaxed: vec![claim(0, 1, 2)],
        };
        let mut conservative = Vec::new();
        check_occurrences(&p, &c, &VerifiedClaims::new(), &mut conservative);
        assert!(conservative
            .iter()
            .any(|d| d.code == Code::BadLinearization));
        let mut diags = Vec::new();
        let verified = check_alias_claims(&p, &c, AliasLevel::Stack, &mut diags);
        check_occurrences(&p, &c, &verified, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cross_jump_exit_escape_caught() {
        // Member 1 stores through r1; external item 2 loads the same
        // address *after* it. The cross-jump rewrite would move the load
        // before the store — the validator must reject this even though
        // the occurrence is convex under the classic Fig. 9 test.
        let f = func(
            "f",
            &["mov r0, #1", "str r0, [r1]", "ldr r2, [r1]", "pop {r4, pc}"],
        );
        let p = program(vec![f]);
        let c = Candidate {
            body: vec![insn("str r0, [r1]"), insn("pop {r4, pc}")],
            occurrences: vec![Occurrence {
                function: 0,
                region_start: 0,
                region_len: 4,
                item_indices: vec![1, 3],
            }],
            kind: ExtractionKind::CrossJump,
            saved: 1,
            relaxed: Vec::new(),
        };
        let mut diags = Vec::new();
        check_occurrences(&p, &c, &VerifiedClaims::new(), &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::BadLinearization && d.message.contains("not exit-closed")),
            "{diags:?}"
        );
    }

    #[test]
    fn default_level_tracks_build_profile() {
        let expected = if cfg!(debug_assertions) {
            ValidateLevel::EveryRound
        } else {
            ValidateLevel::Off
        };
        assert_eq!(ValidateLevel::default(), expected);
    }
}
