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
//! A parsed spec holds what it resolves to, plus the source ids the
//! suite's conformity check and [`ExperimentSpec::knob`] read. It has
//! no identity of its own: a cached cell is named by the lab state the
//! spec lowers to ([`crate::Lab::journal_universe`]) plus its cell key,
//! so an edited spec that lowers alike reuses the cells it shares, and
//! one that lowers differently addresses a new shard.

pub mod registry;
pub mod toml;

use crate::experiment::RobConfig;
use crate::knobs::{Knob, KNOBS};
use crate::twolevel::{DodPredictorKind, ReleasePolicy, Scheme, TwoLevelConfig};
use smtsim_pipeline::{MachineConfig, SimError};
use std::path::{Path, PathBuf};

use self::toml::{Item, Section, Value};

/// The committed `experiments/` directory, pinned to the source tree
/// so binaries and tests find it from any working directory.
#[must_use]
pub fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

/// Every committed spec under [`spec_dir`] with its file stem, in
/// file-name order.
///
/// # Errors
/// [`SimError::InvalidConfig`] when the directory cannot be read or a
/// spec does not load.
pub fn committed_specs() -> Result<Vec<(String, ExperimentSpec)>, SimError> {
    let dir = spec_dir();
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| SimError::InvalidConfig {
            reason: format!("cannot read {}: {e}", dir.display()),
        })?
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter_map(|n| n.strip_suffix(".toml").map(str::to_owned))
        .collect();
    stems.sort();
    let load = |stem: &String| ExperimentSpec::load(&dir.join(format!("{stem}.toml")));
    stems
        .into_iter()
        .map(|s| Ok((s.clone(), load(&s)?)))
        .collect()
}

/// The configuration matrix the correctness oracles run: each ROB
/// configuration a committed spec resolves (`norm`, `compare` and
/// `schemes`), once per [`RobConfig::fingerprint`], in first-resolution
/// order. Labels repeat (nine configurations print as `2-Level
/// R-ROB16`), so each `name` is unique instead: the registry id where
/// a spec uses one, else `<spec id>/<scheme name>` from the first spec
/// that resolves it (`ablation/recheck-1`).
///
/// # Errors
/// [`SimError::InvalidConfig`] when a committed spec does not load.
pub fn committed_variants() -> Result<Vec<SpecVariant>, SimError> {
    let mut matrix: Vec<SpecVariant> = Vec::new();
    for (_, spec) in committed_specs()? {
        let norm = SpecVariant {
            name: spec.norm_id,
            label: spec.norm.label(),
            config: spec.norm,
        };
        let compare = spec.compare.map(|(v, _)| v);
        for mut v in std::iter::once(norm).chain(compare).chain(spec.variants) {
            let fp = v.config.fingerprint();
            let registry = registry::rob_config(&v.name).is_ok_and(|c| c.fingerprint() == fp);
            if !registry {
                v.name = format!("{}/{}", spec.id, v.name);
            }
            match matrix.iter_mut().find(|m| m.config.fingerprint() == fp) {
                None => matrix.push(v),
                Some(m) if registry && m.name.contains('/') => *m = v,
                Some(_) => {}
            }
        }
    }
    Ok(matrix)
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
    /// The trace oracles — the commit differential and the protocol
    /// monitor, judging one traced run per configuration — over the
    /// mixes, the corpus and fresh fuzz.
    Conform,
    /// Bounded model checking of the transfer protocol's abstract model.
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
    let custom = scheme_sections
        .iter()
        .map(|s| resolve_scheme_section(file, s))
        .collect::<Result<Vec<_>, _>>()?;

    // --- [experiment] keys ------------------------------------------
    let mut id = None;
    let mut title = None;
    let mut kind = None;
    let mut machine_id = "icpp08".to_string();
    let mut fetch_policy_id = None;
    let mut norm_id = "baseline-32".to_string();
    let mut scheme_ids: Option<(Vec<String>, usize)> = None;
    let mut mixes: Option<Vec<usize>> = None;
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
            "mixes" => mixes = resolve_mixes(file, item)?,
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
        if let Some(variant) = custom.iter().find(|v| v.name == name) {
            return Ok(variant.clone());
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
    for (s, cv) in scheme_sections.iter().zip(&custom) {
        let referenced = variants.iter().any(|v| v.name == cv.name)
            || compare_id.as_ref().is_some_and(|(c, _)| *c == cv.name);
        if !referenced {
            return Err(spec_err(
                file,
                s.line,
                format!("`[scheme.{}]` is never referenced by `schemes`", cv.name),
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

    Ok(ExperimentSpec {
        id,
        kind,
        title,
        machine_id,
        fetch_policy_id,
        machine,
        norm_id,
        norm,
        variants,
        mixes,
        knobs_id,
        knob_overrides,
        compare,
        specs,
    })
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

/// The keys of one `[scheme.<name>]` section, as written.
#[derive(Default)]
struct SchemeOverrides {
    base: String,
    label: Option<String>,
    l1_entries: Option<u64>,
    l2_entries: Option<u64>,
    dod_threshold: Option<u64>,
    recheck_interval: Option<u64>,
    release: Option<String>,
    cdr_delay: Option<u64>,
    require_oldest: Option<bool>,
    require_full: Option<bool>,
    predictor: Option<String>,
}

/// Resolves one `[scheme.<name>]` section into its variant: the
/// registry base with the section's overrides applied.
fn resolve_scheme_section(file: &str, s: &Section) -> Result<SpecVariant, SpecError> {
    let name = s
        .name
        .strip_prefix("scheme.")
        .expect("caller matched the prefix");
    let mut cs = SchemeOverrides::default();
    // The allocator adds sizes and cadences to capacities and cycle
    // counts, so each must fit in `u32`; sizes and the recheck cadence
    // start at 1, since it cannot be built with an empty level or a
    // zero cadence.
    let bounded = |item: &Item, lo: u64| {
        let (n, key) = (expect_int(file, item)?, &item.key);
        let message = if n < lo {
            format!("key `{key}`: must be at least {lo}")
        } else if n > u64::from(u32::MAX) {
            format!("key `{key}`: {n} out of range {lo}..={}", u32::MAX)
        } else {
            return Ok(Some(n));
        };
        Err(spec_err(file, item.line, message))
    };
    for item in &s.items {
        match item.key.as_str() {
            "base" => cs.base = expect_str(file, item)?.to_string(),
            "label" => cs.label = Some(expect_str(file, item)?.to_string()),
            "l1_entries" => cs.l1_entries = bounded(item, 1)?,
            "l2_entries" => cs.l2_entries = bounded(item, 1)?,
            "dod_threshold" => cs.dod_threshold = Some(expect_int(file, item)?),
            "recheck_interval" => cs.recheck_interval = bounded(item, 1)?,
            "release" => cs.release = Some(expect_str(file, item)?.to_string()),
            "cdr_delay" => cs.cdr_delay = bounded(item, 0)?,
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
    // The remaining errors concern the section as a whole, so they
    // anchor to its header.
    let err = |m: String| spec_err(file, s.line, m);
    if cs.base.is_empty() {
        return Err(err(format!(
            "`[scheme.{name}]` requires a `base` registry id"
        )));
    }
    let base = registry::rob_config(&cs.base).map_err(err)?;
    let release = cs.release.as_deref().map(parse_release).transpose();
    let predictor = cs.predictor.as_deref().map(parse_predictor).transpose();
    let (release, predictor) = (release.map_err(err)?, predictor.map_err(err)?);
    let config = match base {
        RobConfig::Baseline(n) => {
            let two_level_override = cs.l1_entries.is_some()
                || cs.l2_entries.is_some()
                || cs.dod_threshold.is_some()
                || cs.recheck_interval.is_some()
                || release.is_some()
                || cs.cdr_delay.is_some()
                || cs.require_oldest.is_some()
                || cs.require_full.is_some()
                || predictor.is_some();
            if two_level_override {
                return Err(err(format!(
                    "`[scheme.{name}]` applies two-level overrides to baseline `{}`",
                    cs.base
                )));
            }
            RobConfig::Baseline(n)
        }
        RobConfig::TwoLevel(mut tl) => {
            apply_two_level(name, &cs, release, predictor, &mut tl).map_err(err)?;
            RobConfig::TwoLevel(tl)
        }
    };
    Ok(SpecVariant {
        name: name.to_string(),
        label: cs.label.unwrap_or_else(|| config.label()),
        config,
    })
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

/// Applies a section's overrides to a two-level base configuration.
fn apply_two_level(
    name: &str,
    cs: &SchemeOverrides,
    release: Option<ReleasePolicy>,
    predictor: Option<DodPredictorKind>,
    tl: &mut TwoLevelConfig,
) -> Result<(), String> {
    if let Some(n) = cs.l1_entries {
        tl.l1_entries = n as usize;
    }
    if let Some(n) = cs.l2_entries {
        tl.l2_entries = n as usize;
    }
    if let Some(n) = cs.dod_threshold {
        tl.dod_threshold =
            u32::try_from(n).map_err(|_| format!("dod_threshold {n} exceeds u32"))?;
    }
    if let Some(n) = cs.recheck_interval {
        tl.recheck_interval = n;
    }
    if let Some(r) = release {
        tl.release = r;
    }
    // Scheme-changing overrides are mutually exclusive: a variant is
    // CDR *or* predictive *or* a reactive tweak, never a mix.
    let reactive_tweak = cs.require_oldest.is_some() || cs.require_full.is_some();
    if [cs.cdr_delay.is_some(), predictor.is_some(), reactive_tweak]
        .iter()
        .filter(|&&b| b)
        .count()
        > 1
    {
        return Err(format!(
            "`[scheme.{name}]` mixes cdr_delay / predictor / require_* overrides; \
             pick one scheme family"
        ));
    }
    if let Some(delay) = cs.cdr_delay {
        tl.scheme = Scheme::CountDelayed { delay };
    } else if let Some(predictor) = predictor {
        tl.scheme = Scheme::Predictive { predictor };
    } else if reactive_tweak {
        let Scheme::Reactive {
            require_oldest,
            require_full,
        } = tl.scheme
        else {
            return Err(format!(
                "`[scheme.{name}]` sets require_* on a non-reactive base"
            ));
        };
        tl.scheme = Scheme::Reactive {
            require_oldest: cs.require_oldest.unwrap_or(require_oldest),
            require_full: cs.require_full.unwrap_or(require_full),
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
        // The allocator adds these to capacities and cycle counts: a
        // value past `u32` would wrap them, so it is refused.
        let huge: Vec<(String, String)> = [
            ("r-rob-16", "l1_entries", 1),
            ("r-rob-16", "l2_entries", 1),
            ("r-rob-16", "recheck_interval", 1),
            ("cdr-rob-15", "cdr_delay", 0),
        ]
        .iter()
        .map(|(base, key, lo)| {
            let text = format!(
                "[experiment]\nid = \"x\"\nkind = \"figure\"\ntitle = \"t\"\n\
                 schemes = [\"v\"]\n\n[scheme.v]\nbase = \"{base}\"\n{key} = {}\n",
                u64::MAX
            );
            let frag = format!("key `{key}`: {} out of range {lo}..=4294967295", u64::MAX);
            (text, frag)
        })
        .collect();
        let huge = huge.iter().map(|(t, f)| (t.as_str(), 9, f.as_str()));
        let cases = cases.iter().copied().chain(huge);
        for (text, line, frag) in cases {
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
    fn fetch_policy_override_lands_in_the_machine() {
        let text = "[experiment]\nid = \"x\"\nkind = \"table1\"\nfetch_policy = \"icount\"\n";
        let spec = ExperimentSpec::parse("m.toml", text).unwrap();
        assert!(matches!(
            spec.machine.fetch_policy,
            smtsim_pipeline::FetchPolicyKind::Icount
        ));
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

    #[test]
    fn committed_spec_matrix_holds_every_rendered_config() {
        use std::collections::BTreeSet;
        let matrix = committed_variants().unwrap();
        let fps: BTreeSet<String> = matrix.iter().map(|v| v.config.fingerprint()).collect();
        let names: BTreeSet<&str> = matrix.iter().map(|v| v.name.as_str()).collect();
        let two_level = |v: &&SpecVariant| matches!(v.config, RobConfig::TwoLevel(_));
        assert_eq!((matrix.len(), fps.len(), names.len()), (25, 25, 25));
        assert_eq!(matrix.iter().filter(two_level).count(), 23);
        // A registry id beats a local section naming the same config.
        for name in ["r-rob-16", "p-rob-3", "ablation/recheck-1"] {
            assert!(names.contains(name), "{name} missing from {names:?}");
        }
        for (_, spec) in committed_specs().unwrap() {
            for (_, c) in crate::figures::artifact_cells(&spec, &crate::ALL_MIXES) {
                assert!(fps.contains(&c.fingerprint()), "{}: {c:?}", spec.id);
            }
        }
    }
}
