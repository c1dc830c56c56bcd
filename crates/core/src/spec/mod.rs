//! Declarative experiment specs (`experiments/*.toml`).
//!
//! An [`ExperimentSpec`] is the data-driven description of one
//! experiment: which machine, which ROB schemes, which normalization
//! reference, which mixes, which knob scales, and what kind of output
//! (figure, histogram, table, accuracy table, episode dump, …). The
//! committed specs under [`spec_dir`] are the only definitions of the
//! paper's experiments: the `spec` bin in `smtsim-bench` runs any of
//! them, the serve daemon serves them and [`crate::figures`] sweeps
//! them, so a new scenario is a new `.toml` file, not new code.
//!
//! The pipeline is `parse → resolve → lower`:
//!
//! 1. [`toml::parse`] reads the strict TOML subset (typed errors with
//!    file/line context — see the module docs);
//! 2. this module validates the document against the spec schema
//!    (unknown keys/sections, per-kind requirements, type mismatches)
//!    and resolves every id through [`registry`] — scheme ids like
//!    `r-rob-16`, machine ids, fetch policies, mix sets, knob presets
//!    — plus local `[scheme.<name>]` variant sections that derive a
//!    custom configuration from a registry base;
//! 3. [`crate::Knobs`] merges environment knobs with the spec under
//!    the documented precedence (explicit env > spec > built-in
//!    default) and lowers the result into a [`crate::Lab`].
//!
//! Every byte-affecting spec field participates in the **spec
//! fingerprint**: the FNV hash of the spec's canonical rendering
//! ([`ExperimentSpec::render`]). Comment or formatting edits do not
//! change the canonical rendering. The fingerprint is deliberately not
//! part of the result-cache universe ([`crate::Lab::journal_universe`]):
//! a cached cell depends only on the lab state the spec lowers to plus
//! its cell key, so an edited spec that lowers alike reuses the cells
//! it shares, and one that lowers differently addresses a new shard.

pub mod registry;
pub mod toml;

use crate::experiment::RobConfig;
use crate::journal;
use crate::knobs::{Knob, KNOBS};
use crate::twolevel::{DodPredictorKind, ReleasePolicy, Scheme, TwoLevelConfig};
use smtsim_pipeline::{MachineConfig, SimError};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use self::toml::{Item, Section, Value};

/// The committed `experiments/` directory, pinned to the source tree
/// so binaries and tests find it from any working directory.
#[must_use]
pub fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

/// A typed spec-layer failure, carrying the offending file and line.
/// Converts into [`SimError::InvalidConfig`] (exit code 2 through the
/// `run_bin` policy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Spec file the error came from (as given to the parser).
    pub file: String,
    /// 1-based source line (0 = whole-file problems, e.g. I/O).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

impl From<SpecError> for SimError {
    fn from(e: SpecError) -> Self {
        SimError::InvalidConfig {
            reason: e.to_string(),
        }
    }
}

/// What a spec produces — the output-kind family covering every
/// artifact the `spec` bin writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecKind {
    /// An FT bar-chart figure (one series per scheme).
    Figure,
    /// A per-mix DoD histogram (one scheme), optionally compared
    /// against a second scheme's pooled mean.
    Histogram,
    /// Table 1: the machine configuration.
    Table1,
    /// Table 2: the benchmark mixes.
    Table2,
    /// The DoD-accuracy table (oracle + predictor quality per scheme).
    Accuracy,
    /// The structured-trace episode summary (+ raw JSONL dump).
    Episodes,
    /// The differential-conformance suite (mixes, corpus, fresh fuzz).
    Conform,
    /// Bounded model checking + trace conformance.
    Check,
    /// A suite: renders each listed spec into `results/<id>.txt`.
    Suite,
}

impl SpecKind {
    /// The `kind = "..."` strings.
    const ALL: &'static [(&'static str, SpecKind)] = &[
        ("figure", SpecKind::Figure),
        ("histogram", SpecKind::Histogram),
        ("table1", SpecKind::Table1),
        ("table2", SpecKind::Table2),
        ("accuracy", SpecKind::Accuracy),
        ("episodes", SpecKind::Episodes),
        ("conform", SpecKind::Conform),
        ("check", SpecKind::Check),
        ("suite", SpecKind::Suite),
    ];

    fn parse(s: &str) -> Option<SpecKind> {
        Self::ALL.iter().find(|(n, _)| *n == s).map(|&(_, k)| k)
    }

    /// The canonical id string.
    pub fn as_str(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|&&(_, k)| k == self)
            .map(|&(n, _)| n)
            .expect("every kind has an id")
    }

    /// Does this kind consume a `schemes` list?
    fn uses_schemes(self) -> bool {
        matches!(
            self,
            SpecKind::Figure | SpecKind::Histogram | SpecKind::Accuracy | SpecKind::Episodes
        )
    }

    /// Does this kind require a `title`?
    fn needs_title(self) -> bool {
        matches!(
            self,
            SpecKind::Figure | SpecKind::Histogram | SpecKind::Accuracy | SpecKind::Episodes
        )
    }

    /// Does this kind consume a `specs` list (of sibling spec ids)?
    fn uses_specs(self) -> bool {
        self == SpecKind::Suite
    }
}

/// One resolved scheme the spec runs: the reference name used in the
/// `schemes` array, the series label, and the concrete configuration.
#[derive(Clone, Debug)]
pub struct SpecVariant {
    /// The id referenced in `schemes = [...]` (registry id or local
    /// `[scheme.<name>]` section name).
    pub name: String,
    /// Series/legend label.
    pub label: String,
    /// The concrete ROB configuration.
    pub config: RobConfig,
}

/// A local `[scheme.<name>]` section: a registry base plus field
/// overrides, kept in typed form so the canonical renderer can write
/// it back deterministically.
#[derive(Clone, Debug, Default)]
pub struct SchemeOverrides {
    /// Section name (the id the `schemes` array references).
    pub name: String,
    /// Registry scheme id this variant derives from.
    pub base: String,
    /// Explicit series label (default: derived from the configuration).
    pub label: Option<String>,
    /// First-level (per-thread) ROB entries.
    pub l1_entries: Option<u64>,
    /// Second-level (shared) partition entries.
    pub l2_entries: Option<u64>,
    /// DoD threshold.
    pub dod_threshold: Option<u64>,
    /// Reactive recheck cadence, in cycles.
    pub recheck_interval: Option<u64>,
    /// Release policy id (`trigger-serviced`, `drain-and-no-miss`,
    /// `drain-only`).
    pub release: Option<String>,
    /// Count delay, in cycles (switches the scheme to CDR).
    pub cdr_delay: Option<u64>,
    /// Reactive precondition: trigger load must be oldest in flight.
    pub require_oldest: Option<bool>,
    /// Reactive precondition: first level must be full.
    pub require_full: Option<bool>,
    /// Predictor id (`last-value`, `threshold-bit`, `path`; switches
    /// the scheme to predictive).
    pub predictor: Option<String>,
}

/// A fully parsed and resolved experiment spec.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Stable experiment id (`id = "..."`; names the spec file and,
    /// for suites, the `results/<id>.txt` artifact).
    pub id: String,
    /// Output kind.
    pub kind: SpecKind,
    /// Figure/table title, where the kind renders one.
    pub title: Option<String>,
    /// Machine registry id.
    pub machine_id: String,
    /// Fetch-policy registry id overriding the machine's own policy.
    pub fetch_policy_id: Option<String>,
    /// The resolved machine (fetch-policy override applied).
    pub machine: MachineConfig,
    /// Normalization-reference scheme id.
    pub norm_id: String,
    /// The resolved normalization reference.
    pub norm: RobConfig,
    /// The schemes to run, resolved, in `schemes = [...]` order.
    pub variants: Vec<SpecVariant>,
    /// Local `[scheme.<name>]` sections, in file order (for re-render).
    pub custom_schemes: Vec<SchemeOverrides>,
    /// Mix selection: `None` = all 11 paper mixes (either omitted or
    /// the `all` mix-set id), `Some` = an explicit index list.
    pub mixes: Option<Vec<usize>>,
    /// Knob-preset id (`knobs = "..."`), if given.
    pub knobs_id: Option<String>,
    /// Explicit `[knobs]` values, in [`KNOBS`] order (preset *not*
    /// folded in — see [`ExperimentSpec::knob`]).
    pub knob_overrides: Vec<(Knob, u64)>,
    /// Histogram comparison: the scheme whose pooled mean the main
    /// histogram is compared against, plus the display label of the
    /// reference ("mean dependents vs {label}: …").
    pub compare: Option<(SpecVariant, String)>,
    /// Sibling spec ids (suite kind).
    pub specs: Vec<String>,
    /// FNV fingerprint of the canonical rendering — the spec's
    /// content identity.
    pub fingerprint: String,
}

impl ExperimentSpec {
    /// Loads and parses a spec file. I/O failures are typed
    /// [`SimError::InvalidConfig`] (a missing spec is an invocation
    /// mistake, like a malformed knob).
    pub fn load(path: &Path) -> Result<ExperimentSpec, SimError> {
        let file = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| SimError::InvalidConfig {
            reason: format!("cannot read experiment spec {file}: {e}"),
        })?;
        ExperimentSpec::parse(&file, &text).map_err(SimError::from)
    }

    /// Parses spec `text` (from `file`, used in diagnostics).
    pub fn parse(file: &str, text: &str) -> Result<ExperimentSpec, SpecError> {
        let doc = toml::parse(file, text)?;
        resolve(file, &doc)
    }

    /// The effective mix list (`None` in [`ExperimentSpec::mixes`]
    /// means all 11 paper mixes).
    pub fn effective_mixes(&self) -> Vec<usize> {
        self.mixes
            .clone()
            .unwrap_or_else(|| crate::figures::ALL_MIXES.to_vec())
    }

    /// The spec's value for `knob`: its `[knobs]` entry, else its
    /// `knobs = "<preset>"` preset's, else `None` (the environment and
    /// the built-in default decide — see `Knobs::with_spec`).
    pub fn knob(&self, knob: Knob) -> Option<u64> {
        let preset = self.knobs_id.as_deref().map_or(&[][..], |id| {
            registry::knob_preset(id).expect("validated at parse time")
        });
        self.knob_overrides
            .iter()
            .chain(preset)
            .find(|&&(k, _)| k == knob)
            .map(|&(_, v)| v)
    }

    /// Canonical rendering: a normal-form spec file that re-parses to
    /// an equivalent spec. Key order, spacing and quoting are fixed,
    /// and omitted-vs-defaulted distinctions are preserved, so
    /// `render(parse(render(parse(x)))) == render(parse(x))` holds
    /// byte-for-byte (the round-trip stability test) and the FNV hash
    /// of this text is the spec's fingerprint. The result-cache
    /// universe does not include it (see the module docs).
    pub fn render(&self) -> String {
        let mut out = String::from("[experiment]\n");
        let kv = |out: &mut String, k: &str, v: &Value| {
            let _ = writeln!(out, "{k} = {}", toml::render_value(v));
        };
        kv(&mut out, "id", &Value::Str(self.id.clone()));
        if let Some(t) = &self.title {
            kv(&mut out, "title", &Value::Str(t.clone()));
        }
        kv(&mut out, "kind", &Value::Str(self.kind.as_str().into()));
        kv(&mut out, "machine", &Value::Str(self.machine_id.clone()));
        if let Some(fp) = &self.fetch_policy_id {
            kv(&mut out, "fetch_policy", &Value::Str(fp.clone()));
        }
        kv(&mut out, "norm", &Value::Str(self.norm_id.clone()));
        if !self.variants.is_empty() {
            let ids = self
                .variants
                .iter()
                .map(|v| Value::Str(v.name.clone()))
                .collect();
            kv(&mut out, "schemes", &Value::Array(ids));
        }
        match &self.mixes {
            None => {}
            Some(list) => {
                let ids = list.iter().map(|&m| Value::Int(m as u64)).collect();
                kv(&mut out, "mixes", &Value::Array(ids));
            }
        }
        if let Some(id) = &self.knobs_id {
            kv(&mut out, "knobs", &Value::Str(id.clone()));
        }
        if let Some((variant, label)) = &self.compare {
            kv(&mut out, "compare", &Value::Str(variant.name.clone()));
            kv(&mut out, "compare_label", &Value::Str(label.clone()));
        }
        if !self.specs.is_empty() {
            let ids = self.specs.iter().map(|s| Value::Str(s.clone())).collect();
            kv(&mut out, "specs", &Value::Array(ids));
        }
        if !self.knob_overrides.is_empty() {
            out.push_str("\n[knobs]\n");
            for &(k, v) in &self.knob_overrides {
                let key = KNOBS[k as usize].spec_key.expect("parsed from a spec key");
                kv(&mut out, key, &Value::Int(v));
            }
        }
        for cs in &self.custom_schemes {
            let _ = writeln!(out, "\n[scheme.{}]", cs.name);
            kv(&mut out, "base", &Value::Str(cs.base.clone()));
            if let Some(l) = &cs.label {
                kv(&mut out, "label", &Value::Str(l.clone()));
            }
            for (key, v) in [
                ("l1_entries", cs.l1_entries),
                ("l2_entries", cs.l2_entries),
                ("dod_threshold", cs.dod_threshold),
                ("recheck_interval", cs.recheck_interval),
                ("cdr_delay", cs.cdr_delay),
            ] {
                if let Some(v) = v {
                    kv(&mut out, key, &Value::Int(v));
                }
            }
            if let Some(r) = &cs.release {
                kv(&mut out, "release", &Value::Str(r.clone()));
            }
            for (key, v) in [
                ("require_oldest", cs.require_oldest),
                ("require_full", cs.require_full),
            ] {
                if let Some(v) = v {
                    kv(&mut out, key, &Value::Bool(v));
                }
            }
            if let Some(p) = &cs.predictor {
                kv(&mut out, "predictor", &Value::Str(p.clone()));
            }
        }
        out
    }
}

/// Typed accessors over a parsed item, with mismatch diagnostics.
fn expect_str<'a>(file: &str, item: &'a Item) -> Result<&'a str, SpecError> {
    match &item.value {
        Value::Str(s) => Ok(s),
        other => Err(mismatch(file, item, "string", other)),
    }
}

fn expect_int(file: &str, item: &Item) -> Result<u64, SpecError> {
    match item.value {
        Value::Int(n) => Ok(n),
        ref other => Err(mismatch(file, item, "integer", other)),
    }
}

fn expect_bool(file: &str, item: &Item) -> Result<bool, SpecError> {
    match item.value {
        Value::Bool(b) => Ok(b),
        ref other => Err(mismatch(file, item, "boolean", other)),
    }
}

fn expect_str_array(file: &str, item: &Item) -> Result<Vec<String>, SpecError> {
    let Value::Array(items) = &item.value else {
        return Err(mismatch(file, item, "array of strings", &item.value));
    };
    items
        .iter()
        .map(|v| match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(mismatch(file, item, "array of strings", other)),
        })
        .collect()
}

fn mismatch(file: &str, item: &Item, want: &str, got: &Value) -> SpecError {
    SpecError {
        file: file.into(),
        line: item.line,
        message: format!(
            "key `{}`: expected {want}, found {}",
            item.key,
            got.type_name()
        ),
    }
}

fn spec_err(file: &str, line: usize, message: String) -> SpecError {
    SpecError {
        file: file.into(),
        line,
        message,
    }
}

/// Resolves a parsed document into an [`ExperimentSpec`].
#[allow(clippy::too_many_lines)]
fn resolve(file: &str, doc: &toml::Doc) -> Result<ExperimentSpec, SpecError> {
    // --- sections ---------------------------------------------------
    let mut experiment: Option<&Section> = None;
    let mut knobs_section: Option<&Section> = None;
    let mut scheme_sections: Vec<&Section> = Vec::new();
    for s in &doc.sections {
        if s.name == "experiment" {
            experiment = Some(s);
        } else if s.name == "knobs" {
            knobs_section = Some(s);
        } else if let Some(name) = s.name.strip_prefix("scheme.") {
            if name.is_empty() {
                return Err(spec_err(file, s.line, "empty `[scheme.]` name".into()));
            }
            scheme_sections.push(s);
        } else {
            return Err(spec_err(
                file,
                s.line,
                format!(
                    "unknown section `[{}]` (expected `[experiment]`, `[knobs]` \
                     or `[scheme.<name>]`)",
                    s.name
                ),
            ));
        }
    }
    let Some(exp) = experiment else {
        return Err(spec_err(file, 1, "missing `[experiment]` section".into()));
    };

    // --- local scheme variants --------------------------------------
    let mut custom_schemes: Vec<SchemeOverrides> = Vec::new();
    for s in &scheme_sections {
        custom_schemes.push(resolve_scheme_section(file, s)?);
    }

    // --- [experiment] keys ------------------------------------------
    let mut id = None;
    let mut title = None;
    let mut kind = None;
    let mut machine_id = "icpp08".to_string();
    let mut fetch_policy_id = None;
    let mut norm_id = "baseline-32".to_string();
    let mut scheme_ids: Option<(Vec<String>, usize)> = None;
    let mut mixes: Option<Vec<usize>> = None;
    let mut mixes_given = false;
    let mut knobs_id = None;
    let mut compare_id: Option<(String, usize)> = None;
    let mut compare_label: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    for item in &exp.items {
        match item.key.as_str() {
            "id" => id = Some(expect_str(file, item)?.to_string()),
            "title" => title = Some(expect_str(file, item)?.to_string()),
            "kind" => {
                let s = expect_str(file, item)?;
                kind = Some(SpecKind::parse(s).ok_or_else(|| {
                    spec_err(
                        file,
                        item.line,
                        format!(
                            "unknown kind `{s}` (known: {})",
                            SpecKind::ALL
                                .iter()
                                .map(|(n, _)| *n)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                })?);
            }
            "machine" => {
                let s = expect_str(file, item)?;
                registry::machine(s).map_err(|m| spec_err(file, item.line, m))?;
                machine_id = s.to_string();
            }
            "fetch_policy" => {
                let s = expect_str(file, item)?;
                registry::fetch_policy(s).map_err(|m| spec_err(file, item.line, m))?;
                fetch_policy_id = Some(s.to_string());
            }
            "norm" => {
                let s = expect_str(file, item)?;
                registry::rob_config(s).map_err(|m| spec_err(file, item.line, m))?;
                norm_id = s.to_string();
            }
            "schemes" => {
                scheme_ids = Some((expect_str_array(file, item)?, item.line));
            }
            "mixes" => {
                mixes_given = true;
                mixes = resolve_mixes(file, item)?;
            }
            "knobs" => {
                let s = expect_str(file, item)?;
                registry::knob_preset(s).map_err(|m| spec_err(file, item.line, m))?;
                knobs_id = Some(s.to_string());
            }
            "compare" => {
                compare_id = Some((expect_str(file, item)?.to_string(), item.line));
            }
            "compare_label" => compare_label = Some(expect_str(file, item)?.to_string()),
            "specs" => specs = expect_str_array(file, item)?,
            other => {
                return Err(spec_err(
                    file,
                    item.line,
                    format!("unknown key `{other}` in `[experiment]`"),
                ));
            }
        }
    }
    let id = id.ok_or_else(|| spec_err(file, exp.line, "missing `id` in `[experiment]`".into()))?;
    let kind =
        kind.ok_or_else(|| spec_err(file, exp.line, "missing `kind` in `[experiment]`".into()))?;

    // --- [knobs] -----------------------------------------------------
    let mut knob_overrides = Vec::new();
    for item in knobs_section.iter().flat_map(|sec| &sec.items) {
        let v = expect_int(file, item)?;
        let line = item.line;
        let key = item.key.as_str();
        let row = KNOBS
            .iter()
            .find(|r| r.spec_key == Some(key))
            .ok_or_else(|| spec_err(file, line, format!("unknown key `{key}` in `[knobs]`")))?;
        row.check(v).map_err(|range| {
            spec_err(file, line, format!("key `{key}`: {v} out of range {range}"))
        })?;
        knob_overrides.push((row.knob, v));
    }
    knob_overrides.sort_unstable();

    // --- per-kind shape checks --------------------------------------
    if kind.needs_title() && title.is_none() {
        return Err(spec_err(
            file,
            exp.line,
            format!("kind `{}` requires a `title`", kind.as_str()),
        ));
    }
    if !kind.uses_schemes() {
        if let Some((_, line)) = &scheme_ids {
            return Err(spec_err(
                file,
                *line,
                format!("kind `{}` does not use `schemes`", kind.as_str()),
            ));
        }
    }
    if kind.uses_specs() {
        if specs.is_empty() {
            return Err(spec_err(
                file,
                exp.line,
                format!("kind `{}` requires a non-empty `specs` list", kind.as_str()),
            ));
        }
    } else if !specs.is_empty() {
        return Err(spec_err(
            file,
            exp.line,
            format!("kind `{}` does not use `specs`", kind.as_str()),
        ));
    }

    // --- scheme resolution ------------------------------------------
    let lookup = |name: &str, line: usize| -> Result<SpecVariant, SpecError> {
        if let Some(cs) = custom_schemes.iter().find(|c| c.name == name) {
            return build_custom(file, cs);
        }
        let config = registry::rob_config(name).map_err(|m| {
            spec_err(
                file,
                line,
                format!("scheme `{name}` is neither a local `[scheme.{name}]` section nor a registry id: {m}"),
            )
        })?;
        Ok(SpecVariant {
            name: name.to_string(),
            label: config.label(),
            config,
        })
    };
    let mut variants = Vec::new();
    if let Some((ids, line)) = &scheme_ids {
        if ids.is_empty() {
            return Err(spec_err(file, *line, "`schemes` must not be empty".into()));
        }
        if kind == SpecKind::Histogram && ids.len() != 1 {
            return Err(spec_err(
                file,
                *line,
                format!(
                    "kind `histogram` takes exactly one scheme, got {}",
                    ids.len()
                ),
            ));
        }
        for name in ids {
            variants.push(lookup(name, *line)?);
        }
    } else if kind.uses_schemes() {
        return Err(spec_err(
            file,
            exp.line,
            format!("kind `{}` requires a `schemes` list", kind.as_str()),
        ));
    }
    // Local sections that nothing references are dead weight — refuse
    // them so a typo'd reference cannot silently drop a variant.
    for cs in &custom_schemes {
        let referenced = variants.iter().any(|v| v.name == cs.name)
            || compare_id.as_ref().is_some_and(|(c, _)| *c == cs.name);
        if !referenced {
            let line = scheme_sections
                .iter()
                .find(|s| s.name.strip_prefix("scheme.") == Some(cs.name.as_str()))
                .map_or(exp.line, |s| s.line);
            return Err(spec_err(
                file,
                line,
                format!("`[scheme.{}]` is never referenced by `schemes`", cs.name),
            ));
        }
    }

    // --- histogram comparison ---------------------------------------
    let compare = match (kind, compare_id, compare_label) {
        (_, None, None) => None,
        (SpecKind::Histogram, Some((cid, cline)), Some(label)) => {
            Some((lookup(&cid, cline)?, label))
        }
        (SpecKind::Histogram, Some((_, cline)), None) => {
            return Err(spec_err(
                file,
                cline,
                "`compare` requires a `compare_label`".into(),
            ));
        }
        (_, _, _) => {
            return Err(spec_err(
                file,
                exp.line,
                format!(
                    "`compare`/`compare_label` are only valid for kind `histogram` \
                     (this spec is `{}`)",
                    kind.as_str()
                ),
            ));
        }
    };

    // --- machine ----------------------------------------------------
    let mut machine = registry::machine(&machine_id).expect("validated above");
    if let Some(fp) = &fetch_policy_id {
        machine.fetch_policy = registry::fetch_policy(fp).expect("validated above");
    }
    let norm = registry::rob_config(&norm_id).expect("validated above");

    let mut spec = ExperimentSpec {
        id,
        kind,
        title,
        machine_id,
        fetch_policy_id,
        machine,
        norm_id,
        norm,
        variants,
        custom_schemes,
        mixes: if mixes_given { mixes } else { None },
        knobs_id,
        knob_overrides,
        compare,
        specs,
        fingerprint: String::new(),
    };
    spec.fingerprint = journal::fingerprint_str(&spec.render());
    Ok(spec)
}

/// Parses `mixes = "all"` or `mixes = [1, 2, 9]`. `Ok(None)` encodes
/// the full paper set (the `all` id).
fn resolve_mixes(file: &str, item: &Item) -> Result<Option<Vec<usize>>, SpecError> {
    match &item.value {
        Value::Str(s) => {
            registry::mix_set(s).map_err(|m| spec_err(file, item.line, m))?;
            Ok(None)
        }
        Value::Array(items) => {
            let mut out = Vec::new();
            for v in items {
                let Value::Int(n) = v else {
                    return Err(mismatch(file, item, "array of integers", v));
                };
                if !(1..=11).contains(n) {
                    return Err(spec_err(
                        file,
                        item.line,
                        format!("mix index {n} out of range 1..=11"),
                    ));
                }
                out.push(*n as usize);
            }
            if out.is_empty() {
                return Err(spec_err(
                    file,
                    item.line,
                    "`mixes` must not be empty".into(),
                ));
            }
            Ok(Some(out))
        }
        other => Err(mismatch(file, item, "mix-set id or array", other)),
    }
}

/// Parses one `[scheme.<name>]` section into typed overrides.
fn resolve_scheme_section(file: &str, s: &Section) -> Result<SchemeOverrides, SpecError> {
    let name = s
        .name
        .strip_prefix("scheme.")
        .expect("caller matched the prefix");
    let mut cs = SchemeOverrides {
        name: name.to_string(),
        ..SchemeOverrides::default()
    };
    // Sizes and the recheck cadence must be positive: the allocator
    // cannot be built with an empty level or a zero cadence.
    let positive = |item: &Item| match expect_int(file, item)? {
        0 => Err(spec_err(
            file,
            item.line,
            format!("key `{}`: must be at least 1", item.key),
        )),
        n => Ok(Some(n)),
    };
    for item in &s.items {
        match item.key.as_str() {
            "base" => cs.base = expect_str(file, item)?.to_string(),
            "label" => cs.label = Some(expect_str(file, item)?.to_string()),
            "l1_entries" => cs.l1_entries = positive(item)?,
            "l2_entries" => cs.l2_entries = positive(item)?,
            "dod_threshold" => cs.dod_threshold = Some(expect_int(file, item)?),
            "recheck_interval" => cs.recheck_interval = positive(item)?,
            "release" => cs.release = Some(expect_str(file, item)?.to_string()),
            "cdr_delay" => cs.cdr_delay = Some(expect_int(file, item)?),
            "require_oldest" => cs.require_oldest = Some(expect_bool(file, item)?),
            "require_full" => cs.require_full = Some(expect_bool(file, item)?),
            "predictor" => cs.predictor = Some(expect_str(file, item)?.to_string()),
            other => {
                return Err(spec_err(
                    file,
                    item.line,
                    format!("unknown key `{other}` in `[scheme.{name}]`"),
                ));
            }
        }
    }
    if cs.base.is_empty() {
        return Err(spec_err(
            file,
            s.line,
            format!("`[scheme.{name}]` requires a `base` registry id"),
        ));
    }
    // Validate ids eagerly so the error points at this section even if
    // the variant is only referenced later.
    registry::rob_config(&cs.base).map_err(|m| spec_err(file, s.line, m))?;
    if let Some(r) = &cs.release {
        parse_release(r).map_err(|m| spec_err(file, s.line, m))?;
    }
    if let Some(p) = &cs.predictor {
        parse_predictor(p).map_err(|m| spec_err(file, s.line, m))?;
    }
    build_custom(file, &cs).map_err(|mut e| {
        // Shape errors discovered at build time (e.g. two-level
        // overrides on a baseline) anchor to the section header.
        e.line = s.line;
        e
    })?;
    Ok(cs)
}

fn parse_release(id: &str) -> Result<ReleasePolicy, String> {
    match id {
        "trigger-serviced" => Ok(ReleasePolicy::TriggerServiced),
        "drain-and-no-miss" => Ok(ReleasePolicy::DrainAndNoMiss),
        "drain-only" => Ok(ReleasePolicy::DrainOnly),
        _ => Err(format!(
            "unknown release policy `{id}` (known: trigger-serviced, drain-and-no-miss, \
             drain-only)"
        )),
    }
}

fn parse_predictor(id: &str) -> Result<DodPredictorKind, String> {
    match id {
        "last-value" => Ok(DodPredictorKind::LastValue),
        "threshold-bit" => Ok(DodPredictorKind::ThresholdBit),
        "path" => Ok(DodPredictorKind::Path),
        _ => Err(format!(
            "unknown predictor `{id}` (known: last-value, threshold-bit, path)"
        )),
    }
}

/// Instantiates a local variant: registry base + overrides.
fn build_custom(file: &str, cs: &SchemeOverrides) -> Result<SpecVariant, SpecError> {
    let base = registry::rob_config(&cs.base).map_err(|m| spec_err(file, 0, m))?;
    let two_level_override = cs.l1_entries.is_some()
        || cs.l2_entries.is_some()
        || cs.dod_threshold.is_some()
        || cs.recheck_interval.is_some()
        || cs.release.is_some()
        || cs.cdr_delay.is_some()
        || cs.require_oldest.is_some()
        || cs.require_full.is_some()
        || cs.predictor.is_some();
    let config = match base {
        RobConfig::Baseline(n) => {
            if two_level_override {
                return Err(spec_err(
                    file,
                    0,
                    format!(
                        "`[scheme.{}]` applies two-level overrides to baseline `{}`",
                        cs.name, cs.base
                    ),
                ));
            }
            RobConfig::Baseline(n)
        }
        RobConfig::TwoLevel(mut tl) => {
            apply_two_level(file, cs, &mut tl)?;
            RobConfig::TwoLevel(tl)
        }
    };
    let label = cs.label.clone().unwrap_or_else(|| config.label());
    Ok(SpecVariant {
        name: cs.name.clone(),
        label,
        config,
    })
}

/// Applies the override fields to a two-level base configuration.
fn apply_two_level(
    file: &str,
    cs: &SchemeOverrides,
    tl: &mut TwoLevelConfig,
) -> Result<(), SpecError> {
    let err = |m: String| spec_err(file, 0, m);
    if let Some(n) = cs.l1_entries {
        tl.l1_entries = n as usize;
    }
    if let Some(n) = cs.l2_entries {
        tl.l2_entries = n as usize;
    }
    if let Some(n) = cs.dod_threshold {
        tl.dod_threshold =
            u32::try_from(n).map_err(|_| err(format!("dod_threshold {n} exceeds u32")))?;
    }
    if let Some(n) = cs.recheck_interval {
        tl.recheck_interval = n;
    }
    if let Some(r) = &cs.release {
        tl.release = parse_release(r).map_err(err)?;
    }
    // Scheme-changing overrides are mutually exclusive: a variant is
    // CDR *or* predictive *or* a reactive tweak, never a mix.
    let scheme_knobs = [
        cs.cdr_delay.is_some(),
        cs.predictor.is_some(),
        cs.require_oldest.is_some() || cs.require_full.is_some(),
    ];
    if scheme_knobs.iter().filter(|&&b| b).count() > 1 {
        return Err(err(format!(
            "`[scheme.{}]` mixes cdr_delay / predictor / require_* overrides; \
             pick one scheme family",
            cs.name
        )));
    }
    if let Some(delay) = cs.cdr_delay {
        tl.scheme = Scheme::CountDelayed { delay };
    } else if let Some(p) = &cs.predictor {
        tl.scheme = Scheme::Predictive {
            predictor: parse_predictor(p).map_err(err)?,
        };
    } else if cs.require_oldest.is_some() || cs.require_full.is_some() {
        let Scheme::Reactive {
            require_oldest: mut oldest,
            require_full: mut full,
        } = tl.scheme
        else {
            return Err(err(format!(
                "`[scheme.{}]` sets require_* on a non-reactive base",
                cs.name
            )));
        };
        if let Some(o) = cs.require_oldest {
            oldest = o;
        }
        if let Some(f) = cs.require_full {
            full = f;
        }
        tl.scheme = Scheme::Reactive {
            require_oldest: oldest,
            require_full: full,
        };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = r#"
# Figure 2 spec
[experiment]
id = "fig2"
title = "Figure 2: FT with 2-Level R-ROB"
kind = "figure"
norm = "baseline-32"
schemes = ["baseline-32", "baseline-128", "r-rob-16"]
"#;

    #[test]
    fn fig2_spec_matches_the_legacy_wiring() {
        let spec = ExperimentSpec::parse("fig2.toml", FIG2).unwrap();
        assert_eq!(spec.id, "fig2");
        assert_eq!(spec.kind, SpecKind::Figure);
        assert_eq!(spec.machine_id, "icpp08");
        let fps: Vec<String> = spec
            .variants
            .iter()
            .map(|v| v.config.fingerprint())
            .collect();
        assert_eq!(
            fps,
            vec![
                RobConfig::Baseline(32).fingerprint(),
                RobConfig::Baseline(128).fingerprint(),
                RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)).fingerprint(),
            ]
        );
        assert_eq!(spec.variants[2].label, "2-Level R-ROB16");
        assert_eq!(spec.effective_mixes(), crate::figures::ALL_MIXES.to_vec());
        assert!(!spec.fingerprint.is_empty());
    }

    #[test]
    fn render_is_canonical_and_stable() {
        let spec = ExperimentSpec::parse("fig2.toml", FIG2).unwrap();
        let first = spec.render();
        let respec = ExperimentSpec::parse("fig2.toml", &first).unwrap();
        assert_eq!(respec.render(), first, "render∘parse must be idempotent");
        assert_eq!(respec.fingerprint, spec.fingerprint);
        // Comments and formatting do not change the identity…
        let noisy = format!("# noise\n\n{FIG2}"); // leading comments
        let noisy_spec = ExperimentSpec::parse("fig2.toml", &noisy).unwrap();
        assert_eq!(noisy_spec.fingerprint, spec.fingerprint);
        // …but a semantic edit does.
        let edited = FIG2.replace("r-rob-16", "r-rob-8");
        let edited_spec = ExperimentSpec::parse("fig2.toml", &edited).unwrap();
        assert_ne!(edited_spec.fingerprint, spec.fingerprint);
    }

    #[test]
    fn custom_scheme_sections_build_derived_configs() {
        let text = r#"
[experiment]
id = "abl"
title = "Ablation"
kind = "figure"
schemes = ["paper", "l2-192", "cdr-8"]

[scheme.paper]
base = "r-rob-16"
label = "R-ROB16 (paper)"

[scheme.l2-192]
base = "r-rob-16"
label = "L2=192"
l2_entries = 192

[scheme.cdr-8]
base = "cdr-rob-15"
label = "CDR delay=8"
cdr_delay = 8
"#;
        let spec = ExperimentSpec::parse("abl.toml", text).unwrap();
        assert_eq!(spec.variants[0].label, "R-ROB16 (paper)");
        assert_eq!(
            spec.variants[0].config.fingerprint(),
            RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)).fingerprint()
        );
        let mut l2 = TwoLevelConfig::r_rob(16);
        l2.l2_entries = 192;
        assert_eq!(
            spec.variants[1].config.fingerprint(),
            RobConfig::TwoLevel(l2).fingerprint()
        );
        let mut cdr = TwoLevelConfig::cdr_rob(15);
        cdr.scheme = Scheme::CountDelayed { delay: 8 };
        assert_eq!(
            spec.variants[2].config.fingerprint(),
            RobConfig::TwoLevel(cdr).fingerprint()
        );
        // Round-trip keeps the custom sections.
        let re = ExperimentSpec::parse("abl.toml", &spec.render()).unwrap();
        assert_eq!(re.render(), spec.render());
    }

    #[test]
    fn typed_errors_name_the_offending_key_and_line() {
        let cases: &[(&str, usize, &str)] = &[
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"r-rob-16\"]\nbudget = 1\n",
                6,
                "unknown key `budget`",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"q-rob-16\"]\n",
                5,
                "unknown scheme id `q-rob-16`",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = 7\n",
                4,
                "key `title`: expected string, found integer",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"nope\"\n",
                3,
                "unknown kind `nope`",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"table2\"\nschemes = [\"r-rob-16\"]\n",
                4,
                "does not use `schemes`",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"check\"\n\n[knobs]\ncheck_threads = 9\n",
                6,
                "out of range 1..=4",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"v\"]\n\n[scheme.v]\nbase = \"baseline-32\"\nl2_entries = 9\n",
                7,
                "two-level overrides to baseline",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"r-rob-16\"]\n\n[scheme.dead]\nbase = \"r-rob-16\"\n",
                7,
                "never referenced",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"r-rob-16\"]\nmixes = [0]\n",
                6,
                "out of range 1..=11",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"baseline-0\"]\n",
                5,
                "at least one entry",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"v\"]\n\n[scheme.v]\nbase = \"r-rob-16\"\nl1_entries = 0\n",
                9,
                "key `l1_entries`: must be at least 1",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"v\"]\n\n[scheme.v]\nbase = \"r-rob-16\"\nl2_entries = 0\n",
                9,
                "key `l2_entries`: must be at least 1",
            ),
            (
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"v\"]\n\n[scheme.v]\nbase = \"r-rob-16\"\nrecheck_interval = 0\n",
                9,
                "key `recheck_interval`: must be at least 1",
            ),
        ];
        for &(text, line, frag) in cases {
            let e = ExperimentSpec::parse("bad.toml", text).unwrap_err();
            assert_eq!(e.line, line, "{text:?} -> {e}");
            assert!(e.message.contains(frag), "{text:?} -> {e}");
            let sim: SimError = e.into();
            assert_eq!(sim.kind(), "invalid-config");
            assert!(sim.to_string().contains("bad.toml:"), "{sim}");
        }
    }

    #[test]
    fn duplicate_section_is_an_invalid_config() {
        let text = "[experiment]\nid = \"x\"\nkind = \"table2\"\n[experiment]\n";
        let e = ExperimentSpec::parse("dup.toml", text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("duplicate section"), "{e}");
    }

    #[test]
    fn knob_presets_overlay_under_explicit_knobs() {
        let text = "[experiment]\nid = \"x\"\nkind = \"table2\"\nknobs = \"ci\"\n\
                    \n[knobs]\nwarmup = 5000\n";
        let spec = ExperimentSpec::parse("k.toml", text).unwrap();
        assert_eq!(spec.knob(Knob::Budget), Some(8_000), "preset value");
        assert_eq!(
            spec.knob(Knob::Warmup),
            Some(5_000),
            "[knobs] beats the preset"
        );
        assert_eq!(spec.knob(Knob::Seed), Some(42));
        assert_eq!(spec.knob(Knob::FuzzCases), None);
    }

    #[test]
    fn knobs_section_renders_in_the_canonical_key_order() {
        // The order is part of every spec fingerprint.
        let text = "[experiment]\nid = \"x\"\nkind = \"check\"\n\n[knobs]\ncheck_l2 = 3\n\
                    seed = 7\ncheck_threads = 2\nfuzz_seed = 9\nbudget = 1\nfuzz_cases = 5\n\
                    warmup = 2\nst_budget = 3\n";
        let spec = ExperimentSpec::parse("k.toml", text).unwrap();
        assert!(
            spec.render().ends_with(
                "\n[knobs]\nbudget = 1\nst_budget = 3\nwarmup = 2\nseed = 7\nfuzz_cases = 5\n\
                 fuzz_seed = 9\ncheck_threads = 2\ncheck_l2 = 3\n"
            ),
            "{}",
            spec.render()
        );
    }

    #[test]
    fn fetch_policy_override_lands_in_the_machine() {
        let text = "[experiment]\nid = \"x\"\nkind = \"table1\"\nfetch_policy = \"icount\"\n";
        let spec = ExperimentSpec::parse("m.toml", text).unwrap();
        assert!(matches!(
            spec.machine.fetch_policy,
            smtsim_pipeline::FetchPolicyKind::Icount
        ));
        // The fingerprint sees the override (it is byte-affecting).
        let plain =
            ExperimentSpec::parse("m.toml", "[experiment]\nid = \"x\"\nkind = \"table1\"\n")
                .unwrap();
        assert_ne!(spec.fingerprint, plain.fingerprint);
    }

    #[test]
    fn histogram_compare_requires_label_and_single_scheme() {
        let ok = "[experiment]\nid = \"fig3\"\ntitle = \"t\"\nkind = \"histogram\"\n\
                  schemes = [\"r-rob-16\"]\ncompare = \"baseline-32\"\n\
                  compare_label = \"Figure 1\"\n";
        let spec = ExperimentSpec::parse("h.toml", ok).unwrap();
        let (cmp, label) = spec.compare.as_ref().unwrap();
        assert_eq!(cmp.name, "baseline-32");
        assert_eq!(label, "Figure 1");
        let e = ExperimentSpec::parse(
            "h.toml",
            "[experiment]\nid = \"x\"\ntitle = \"t\"\nkind = \"histogram\"\n\
             schemes = [\"r-rob-16\", \"p-rob-5\"]\n",
        )
        .unwrap_err();
        assert!(e.message.contains("exactly one scheme"), "{e}");
        let e = ExperimentSpec::parse(
            "h.toml",
            "[experiment]\nid = \"x\"\ntitle = \"t\"\nkind = \"histogram\"\n\
             schemes = [\"r-rob-16\"]\ncompare = \"baseline-32\"\n",
        )
        .unwrap_err();
        assert!(e.message.contains("compare_label"), "{e}");
    }
}
