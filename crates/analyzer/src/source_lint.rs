//! Layer-2 source lint: a lightweight token-level pass over the
//! workspace's own Rust sources enforcing repo invariants.
//!
//! The linter is deliberately not a parser: it strips comments and string
//! literals (preserving line numbers), masks `#[cfg(test)]` regions by
//! brace matching, and then pattern-matches the remaining tokens. That is
//! enough for the invariants below and keeps the crate dependency-free.
//!
//! ## Rules
//!
//! - `lint/unwrap` — no `.unwrap()` in library code: recoverable
//!   conditions must surface as `Result` (`GenError`-style), not abort a
//!   simulation mid-run;
//! - `lint/panic` — no `panic!`/`todo!`/`unimplemented!` in library code;
//! - `lint/print` — no `println!`-family output in library code: results
//!   flow through return values or the telemetry exporters, binaries own
//!   the terminal;
//! - `lint/instr-gate` — wall-clock instrumentation (`Instant::now`,
//!   `SystemTime::now`) only inside the designated instrumentation
//!   modules, mirroring the paper's POWERTEST discipline: the measurement
//!   switch must not be able to alter functional behaviour;
//! - `atomics/relaxed` — every `Ordering::Relaxed` on a shared atomic in
//!   library code must carry a `relaxed:` invariant comment on the same
//!   raw line or the line above, stating why the weakest ordering is
//!   sound at that site (the model checker in [`crate::verify`] proves
//!   the event ring's claims; the comment makes every other site's
//!   justification reviewable);
//! - `atomics/audited` — in the designated concurrency-audited files,
//!   *every* atomic ordering site (not just `Relaxed`) must carry a
//!   `relaxed:` or `ordering:` invariant comment;
//! - `atomics/fence-pair` — a `fence(Ordering::Release)` must be
//!   followed, within the same function, by a release-or-stronger store
//!   or RMW (the fence is meaningless without the store it orders), and
//!   a `fence(Ordering::Acquire)` must be preceded by an
//!   acquire-or-stronger load or RMW — the seqlock entry/exit shape the
//!   event ring relies on.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;

/// Modules allowed to read wall-clock time: the opt-in telemetry /
/// profiling layer. Paths are workspace-relative with `/` separators.
const INSTRUMENTATION_MODULES: &[&str] = &[
    "crates/core/src/telemetry/",
    // The structured event ring (covered by the prefix above, named so
    // the grant is explicit): it stamps a creation Instant to derive
    // events/sec. Simulation results must never depend on it.
    "crates/core/src/telemetry/events.rs",
    // The multi-resolution retention store (also covered by the prefix,
    // named so the grant is explicit): pure bookkeeping fed by the
    // telemetry layer. Simulation results must never depend on it.
    "crates/core/src/telemetry/observatory.rs",
    "crates/core/src/session.rs",
    "crates/sim/src/profile.rs",
    "crates/sim/src/kernel.rs",
    "crates/bench/src/serve.rs",
    // The load generator exists to measure request wall-clock; it never
    // touches the simulation path.
    "crates/bench/src/loadgen.rs",
    // The deep verification pass times its own wall-clock budget; the
    // model checker's stall watchdog also reads the monotonic clock.
    "crates/analyzer/src/verify/",
];

/// Files whose cross-thread atomics have been audited end to end: every
/// ordering site in them must carry an invariant comment the audit can
/// be checked against (`atomics/audited`).
const CONCURRENCY_AUDITED: &[&str] = &[
    "crates/core/src/telemetry/events.rs",
    "crates/bench/src/sweep.rs",
    "crates/bench/src/serve.rs",
];

/// The five memory-ordering variants of `std::sync::atomic::Ordering`.
/// Matching `Ordering::<variant>` (rather than bare `Ordering::`) keeps
/// `cmp::Ordering::{Less, Equal, Greater}` out of scope.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Lints every library source under `root` (`crates/*/src/**/*.rs`,
/// excluding `src/bin/`). Returns findings sorted by path then line so
/// output is deterministic across filesystems.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (rel, src) in workspace_lib_sources(root) {
        diags.extend(lint_source(&src, &rel));
    }
    diags
}

/// Reads every library source under `root`, in deterministic order,
/// as `(workspace-relative path, contents)` pairs.
fn workspace_lib_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            collect_rs_files(&c.join("src"), &mut files);
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, src));
    }
    out
}

/// Per-variant counts of atomic ordering sites across the workspace's
/// library code (test regions excluded), reported by the deep pass so
/// the audit surface is visible in the findings stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderingCensus {
    /// `Ordering::Relaxed` mentions.
    pub relaxed: u64,
    /// `Ordering::Acquire` mentions.
    pub acquire: u64,
    /// `Ordering::Release` mentions.
    pub release: u64,
    /// `Ordering::AcqRel` mentions.
    pub acq_rel: u64,
    /// `Ordering::SeqCst` mentions.
    pub seq_cst: u64,
    /// Lines invoking an atomic fence with an explicit ordering.
    pub fences: u64,
    /// Library files containing at least one atomic ordering site.
    pub files_with_atomics: u64,
}

impl OrderingCensus {
    /// Total ordering mentions across all variants.
    pub fn total(&self) -> u64 {
        self.relaxed + self.acquire + self.release + self.acq_rel + self.seq_cst
    }
}

/// Counts every atomic ordering site in the workspace's library code.
pub fn classify_orderings(root: &Path) -> OrderingCensus {
    let mut census = OrderingCensus::default();
    for (_, src) in workspace_lib_sources(root) {
        let masked = mask_test_regions(&strip_comments_and_strings(&src));
        let mut any = false;
        for line in masked.lines() {
            for (variant, slot) in [
                ("Relaxed", &mut census.relaxed),
                ("Acquire", &mut census.acquire),
                ("Release", &mut census.release),
                ("AcqRel", &mut census.acq_rel),
                ("SeqCst", &mut census.seq_cst),
            ] {
                if contains_ordering(line, variant) {
                    *slot += 1;
                    any = true;
                    if line.contains("fence(") {
                        census.fences += 1;
                    }
                }
            }
        }
        if any {
            census.files_with_atomics += 1;
        }
    }
    census
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            // src/bin targets own the terminal and the process exit; the
            // library invariants do not apply there.
            if p.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lints one file's source text. `rel_path` decides the instrumentation
/// allowlist and is stamped into the diagnostics.
pub fn lint_source(src: &str, rel_path: &str) -> Vec<Diagnostic> {
    let code = strip_comments_and_strings(src);
    let masked = mask_test_regions(&code);
    let instrumented = INSTRUMENTATION_MODULES
        .iter()
        .any(|m| rel_path.starts_with(m) || rel_path == m.trim_end_matches('/'));
    let audited = CONCURRENCY_AUDITED.contains(&rel_path);
    // Invariant-comment markers live in comments, which stripping blanks
    // out — marker checks read the raw text.
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut diags = Vec::new();
    for (i, line) in masked.lines().enumerate() {
        let lineno = i + 1;
        if line.contains(".unwrap()") {
            diags.push(
                Diagnostic::error(
                    "lint/unwrap",
                    rel_path.to_string(),
                    "`.unwrap()` in library code; return a Result (GenError-style) instead",
                )
                .at_line(lineno),
            );
        }
        for mac in ["panic!(", "todo!(", "unimplemented!("] {
            if contains_macro(line, mac) {
                diags.push(
                    Diagnostic::error(
                        "lint/panic",
                        rel_path.to_string(),
                        format!(
                            "`{}` in library code; return an error instead",
                            &mac[..mac.len() - 1]
                        ),
                    )
                    .at_line(lineno),
                );
            }
        }
        for mac in ["println!(", "print!(", "eprintln!(", "eprint!(", "dbg!("] {
            if contains_macro(line, mac) {
                diags.push(
                    Diagnostic::error(
                        "lint/print",
                        rel_path.to_string(),
                        format!(
                            "`{}` in library code; emit through telemetry exporters or \
                             return data to the caller",
                            &mac[..mac.len() - 1]
                        ),
                    )
                    .at_line(lineno),
                );
            }
        }
        if !instrumented && (line.contains("Instant::now") || line.contains("SystemTime::now")) {
            diags.push(
                Diagnostic::error(
                    "lint/instr-gate",
                    rel_path.to_string(),
                    "wall-clock timing outside the instrumentation modules; keep \
                     measurement code where disabling it cannot change behaviour",
                )
                .at_line(lineno),
            );
        }
        if line.contains("Ordering::Relaxed") && !has_marker(&raw_lines, lineno, &["relaxed:"]) {
            diags.push(
                Diagnostic::error(
                    "atomics/relaxed",
                    rel_path.to_string(),
                    "`Ordering::Relaxed` without a `relaxed:` invariant comment on this \
                     line or the line above; state why the weakest ordering is sound \
                     here, or strengthen it",
                )
                .at_line(lineno),
            );
        }
        if audited
            && ATOMIC_ORDERINGS[1..]
                .iter()
                .any(|v| contains_ordering(line, v))
            && !has_marker(&raw_lines, lineno, &["relaxed:", "ordering:"])
        {
            diags.push(
                Diagnostic::error(
                    "atomics/audited",
                    rel_path.to_string(),
                    "atomic ordering site in a concurrency-audited file without a \
                     `relaxed:`/`ordering:` invariant comment on this line or the \
                     line above",
                )
                .at_line(lineno),
            );
        }
    }
    diags.extend(check_fence_pairing(&masked, rel_path));
    diags
}

/// True if any of the raw source lines `lineno` or `lineno - 1`
/// (1-based) mentions one of the marker needles. Markers live in
/// comments, so this looks at the *unstripped* text.
fn has_marker(raw_lines: &[&str], lineno: usize, needles: &[&str]) -> bool {
    let mut candidates = vec![lineno];
    if lineno > 1 {
        candidates.push(lineno - 1);
    }
    candidates.into_iter().any(|n| {
        raw_lines
            .get(n - 1)
            .is_some_and(|l| needles.iter().any(|m| l.contains(m)))
    })
}

/// True if `line` mentions `Ordering::<variant>` for the given variant.
fn contains_ordering(line: &str, variant: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find("Ordering::") {
        let at = start + pos + "Ordering::".len();
        if line[at..].starts_with(variant) {
            // Reject a longer identifier (e.g. `RelaxedFoo`).
            let after = line[at + variant.len()..].chars().next();
            if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                return true;
            }
        }
        start = at;
    }
    false
}

/// Classification of one atomic-operation line for the fence-pair rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomKind {
    Load,
    Store,
    Rmw,
    Fence,
}

#[derive(Debug, Clone, Copy)]
struct AtomSite {
    line: usize,
    kind: AtomKind,
    /// Ordering is acquire-or-stronger (Acquire, AcqRel, SeqCst).
    acquire: bool,
    /// Ordering is release-or-stronger (Release, AcqRel, SeqCst).
    release: bool,
}

/// `atomics/fence-pair`: inside each function, a release fence must be
/// followed by a release store/RMW and an acquire fence preceded by an
/// acquire load/RMW. Operates line-by-line on the masked text, which is
/// exact enough for this workspace's one-op-per-line atomics style.
fn check_fence_pairing(masked: &str, rel_path: &str) -> Vec<Diagnostic> {
    let mut sites = Vec::new();
    for (i, line) in masked.lines().enumerate() {
        let orderings: Vec<&str> = ATOMIC_ORDERINGS
            .iter()
            .copied()
            .filter(|v| contains_ordering(line, v))
            .collect();
        if orderings.is_empty() {
            continue;
        }
        let kind = if line.contains("fence(") {
            AtomKind::Fence
        } else if line.contains(".fetch_") || line.contains(".swap(") || line.contains(".compare_")
        {
            AtomKind::Rmw
        } else if line.contains(".store(") {
            AtomKind::Store
        } else if line.contains(".load(") {
            AtomKind::Load
        } else {
            continue; // e.g. an ordering passed through as a parameter
        };
        let acquire = orderings
            .iter()
            .any(|v| ["Acquire", "AcqRel", "SeqCst"].contains(v));
        let release = orderings
            .iter()
            .any(|v| ["Release", "AcqRel", "SeqCst"].contains(v));
        sites.push(AtomSite {
            line: i + 1,
            kind,
            acquire,
            release,
        });
    }
    let regions = fn_regions(masked);
    let mut diags = Vec::new();
    for fence in sites.iter().filter(|s| s.kind == AtomKind::Fence) {
        // Innermost enclosing function: the largest start line at or
        // before the fence whose region still covers it.
        let Some(&(start, end)) = regions
            .iter()
            .filter(|&&(s, e)| s <= fence.line && fence.line <= e)
            .max_by_key(|&&(s, _)| s)
        else {
            continue;
        };
        let within = |s: &&AtomSite| start <= s.line && s.line <= end;
        if fence.release {
            let paired = sites.iter().filter(within).any(|s| {
                s.line > fence.line
                    && matches!(s.kind, AtomKind::Store | AtomKind::Rmw)
                    && s.release
            });
            if !paired {
                diags.push(
                    Diagnostic::error(
                        "atomics/fence-pair",
                        rel_path.to_string(),
                        "release fence with no subsequent release store/RMW in the same \
                         function; nothing publishes what the fence ordered",
                    )
                    .at_line(fence.line),
                );
            }
        }
        if fence.acquire {
            let paired = sites.iter().filter(within).any(|s| {
                s.line < fence.line && matches!(s.kind, AtomKind::Load | AtomKind::Rmw) && s.acquire
            });
            if !paired {
                diags.push(
                    Diagnostic::error(
                        "atomics/fence-pair",
                        rel_path.to_string(),
                        "acquire fence with no preceding acquire load/RMW in the same \
                         function; the fence has nothing to synchronize with",
                    )
                    .at_line(fence.line),
                );
            }
        }
    }
    diags
}

/// Brace-matched `(start_line, end_line)` (1-based, inclusive) of every
/// function body in the masked text. Declarations without bodies are
/// skipped; nested functions yield nested regions.
fn fn_regions(masked: &str) -> Vec<(usize, usize)> {
    let b = masked.as_bytes();
    let mut regions = Vec::new();
    let mut search = 0;
    while let Some(pos) = find_subslice(b, b"fn ", search) {
        search = pos + 3;
        // Require a token boundary before `fn`.
        if pos > 0 && (b[pos - 1].is_ascii_alphanumeric() || b[pos - 1] == b'_') {
            continue;
        }
        // Find the body's opening brace; a `;` first means a bodyless
        // declaration (trait method, extern).
        let mut j = pos + 3;
        let mut open = None;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        let mut end = b.len().saturating_sub(1);
        for (k, &c) in b.iter().enumerate().skip(open) {
            if c == b'{' {
                depth += 1;
            } else if c == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            }
        }
        let line_of = |idx: usize| masked[..idx].bytes().filter(|&c| c == b'\n').count() + 1;
        regions.push((line_of(pos), line_of(end)));
    }
    regions
}

/// True if `line` invokes `mac` as a macro (not as a suffix of a longer
/// identifier, e.g. `my_print!(`).
fn contains_macro(line: &str, mac: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(mac) {
        let at = start + pos;
        let prev = line[..at].chars().next_back();
        if !prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
        start = at + mac.len();
    }
    false
}

/// Replaces comments and string/char literal contents with spaces,
/// preserving every newline so line numbers survive.
fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                out.push(b' ');
                out.push(b' ');
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if is_raw_string_start(b, i) => {
                out.push(b' ');
                i += 1;
                let mut hashes = 0;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    out.push(b' ');
                    i += 1;
                }
                out.push(b' ');
                i += 1; // opening quote
                loop {
                    if i >= b.len() {
                        break;
                    }
                    if b[i] == b'"' && closes_raw(b, i, hashes) {
                        out.extend(std::iter::repeat_n(b' ', hashes + 1));
                        i += hashes + 1;
                        break;
                    }
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' {
                        out.push(b' ');
                        i += 1;
                        if i >= b.len() {
                            break;
                        }
                    }
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
                if i < b.len() {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'\'' if is_char_literal(b, i) => {
                out.push(b' ');
                i += 1;
                while i < b.len() && b[i] != b'\'' {
                    if b[i] == b'\\' {
                        out.push(b' ');
                        i += 1;
                        if i >= b.len() {
                            break;
                        }
                    }
                    out.push(b' ');
                    i += 1;
                }
                if i < b.len() {
                    out.push(b' ');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// `r"`, `r#"` etc. — but not a plain identifier ending in `r`.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn closes_raw(b: &[u8], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| i + k < b.len() && b[i + k] == b'#')
}

/// Distinguishes a char literal from a lifetime: `'a'`/`'\n'` vs `'a`.
fn is_char_literal(b: &[u8], i: usize) -> bool {
    if i + 1 >= b.len() {
        return false;
    }
    if b[i + 1] == b'\\' {
        return true;
    }
    i + 2 < b.len() && b[i + 2] == b'\''
}

/// Blanks out every `#[cfg(test)]`-attributed item (matched to its
/// closing brace), so test-only code is exempt from the rules.
fn mask_test_regions(code: &str) -> String {
    let b = code.as_bytes();
    let mut masked: Vec<u8> = b.to_vec();
    let mut search = 0;
    while let Some(pos) = find_subslice(b, b"#[cfg(test)]", search) {
        // Find the opening brace of the attributed item.
        let Some(open) = b[pos..].iter().position(|&c| c == b'{').map(|o| pos + o) else {
            break;
        };
        let mut depth = 0usize;
        let mut end = b.len();
        for (j, &c) in b.iter().enumerate().skip(open) {
            if c == b'{' {
                depth += 1;
            } else if c == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            }
        }
        for m in masked.iter_mut().take(end).skip(pos) {
            if *m != b'\n' {
                *m = b' ';
            }
        }
        search = end;
    }
    String::from_utf8_lossy(&masked).into_owned()
}

fn find_subslice(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| from + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unwrap_in_lib_code_is_flagged_with_line() {
        let src = "fn f() {\n    let x = g().unwrap();\n}\n";
        let diags = lint_source(src, "crates/x/src/lib.rs");
        assert_eq!(rules(&diags), ["lint/unwrap"]);
        assert_eq!(diags[0].line, Some(2));
    }

    #[test]
    fn unwrap_variants_are_not_flagged() {
        let src = "fn f() { g().unwrap_or_default(); h().unwrap_or_else(|| 1); }\n";
        assert!(lint_source(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn panic_family_is_flagged() {
        let src = "fn f() { panic!(\"boom\"); }\nfn g() { todo!() }\n";
        let diags = lint_source(src, "crates/x/src/lib.rs");
        assert_eq!(rules(&diags), ["lint/panic", "lint/panic"]);
    }

    #[test]
    fn assert_macros_are_allowed() {
        let src = "fn f(x: u32) { assert!(x > 0); debug_assert_eq!(x, x); }\n";
        assert!(lint_source(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); panic!(); }\n}\n";
        assert!(lint_source(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn comments_and_strings_are_exempt() {
        let src = concat!(
            "//! println!(\"doc\"); .unwrap()\n",
            "fn f() -> &'static str {\n",
            "    // panic!(\"comment\")\n",
            "    \"panic!(in-a-string).unwrap()\"\n",
            "}\n",
            "fn g() -> &'static str { r#\"println!(\"raw\")\"# }\n",
        );
        assert!(lint_source(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn print_macros_are_flagged_but_custom_names_are_not() {
        let src = "fn f() { println!(\"x\"); my_println!(\"y\"); }\n";
        let diags = lint_source(src, "crates/x/src/lib.rs");
        assert_eq!(rules(&diags), ["lint/print"]);
    }

    #[test]
    fn wall_clock_outside_instrumentation_is_flagged() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let diags = lint_source(src, "crates/core/src/power_fsm.rs");
        assert_eq!(rules(&diags), ["lint/instr-gate"]);
        assert!(lint_source(src, "crates/core/src/telemetry/span.rs").is_empty());
        assert!(lint_source(src, "crates/sim/src/profile.rs").is_empty());
    }

    #[test]
    fn event_bus_may_read_the_clock_but_the_gate_still_fires_elsewhere() {
        // The same seeded violation, moved around the workspace: allowed
        // in the event ring (it derives events/sec from a creation
        // Instant), still flagged anywhere outside the allowlist — the
        // grant is a path, not a rule exemption.
        let src = "fn rate() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n";
        assert!(
            lint_source(src, "crates/core/src/telemetry/events.rs").is_empty(),
            "the event ring is designated instrumentation"
        );
        for path in [
            "crates/bench/src/dashboard.rs",
            "crates/ahb/src/phase.rs",
            "crates/core/src/model.rs",
        ] {
            assert_eq!(
                rules(&lint_source(src, path)),
                ["lint/instr-gate"],
                "clock read at {path} must still be flagged"
            );
        }
    }

    #[test]
    fn observatory_is_instrumentation_but_the_gate_holds_around_it() {
        // The retention store's explicit allowlist entry grants the
        // path, not the pattern: the same clock read is still flagged
        // in neighbouring non-instrumentation modules.
        let src = "fn rate() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n";
        assert!(
            lint_source(src, "crates/core/src/telemetry/observatory.rs").is_empty(),
            "the observatory is designated instrumentation"
        );
        for path in [
            "crates/bench/src/obsquery.rs",
            "crates/bench/src/flightrec.rs",
            "crates/core/src/macromodel.rs",
        ] {
            assert_eq!(
                rules(&lint_source(src, path)),
                ["lint/instr-gate"],
                "clock read at {path} must still be flagged"
            );
        }
    }

    #[test]
    fn char_literals_and_lifetimes_survive_stripping() {
        let src =
            "fn f<'a>(x: &'a str) -> char { let c = 'x'; let n = '\\n'; let _ = (x, n); c }\n";
        assert!(lint_source(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn unmarked_relaxed_is_flagged_and_marker_silences() {
        let bare =
            "fn f(x: &std::sync::atomic::AtomicU64) -> u64 {\n    x.load(Ordering::Relaxed)\n}\n";
        let diags = lint_source(bare, "crates/x/src/lib.rs");
        assert_eq!(rules(&diags), ["atomics/relaxed"]);
        assert_eq!(diags[0].line, Some(2));

        let above = "fn f(x: &std::sync::atomic::AtomicU64) -> u64 {\n    // relaxed: monotonic counter, no data guarded by it\n    x.load(Ordering::Relaxed)\n}\n";
        assert!(lint_source(above, "crates/x/src/lib.rs").is_empty());

        let inline = "fn f(x: &std::sync::atomic::AtomicU64) -> u64 {\n    x.load(Ordering::Relaxed) // relaxed: monotonic counter\n}\n";
        assert!(lint_source(inline, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn audited_files_require_markers_on_every_ordering() {
        let src =
            "fn f(x: &std::sync::atomic::AtomicBool) {\n    x.store(true, Ordering::SeqCst);\n}\n";
        // The same SeqCst site: clean in an ordinary file, flagged in an
        // audited one.
        assert!(lint_source(src, "crates/x/src/lib.rs").is_empty());
        let diags = lint_source(src, "crates/bench/src/sweep.rs");
        assert_eq!(rules(&diags), ["atomics/audited"]);
        let marked = "fn f(x: &std::sync::atomic::AtomicBool) {\n    // ordering: cold shutdown flag\n    x.store(true, Ordering::SeqCst);\n}\n";
        assert!(lint_source(marked, "crates/bench/src/sweep.rs").is_empty());
    }

    #[test]
    fn cmp_ordering_variants_are_out_of_scope() {
        let src = "fn f(a: u32, b: u32) -> std::cmp::Ordering {\n    if a < b { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater }\n}\n";
        assert!(lint_source(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn unpaired_release_fence_is_flagged() {
        let src = concat!(
            "use std::sync::atomic::{fence, AtomicU64, Ordering};\n",
            "fn publish(stamp: &AtomicU64) {\n",
            "    // ordering: orders earlier payload stores\n",
            "    fence(Ordering::Release);\n",
            "    // relaxed: WRONG — the publishing store must be release\n",
            "    stamp.store(2, Ordering::Relaxed);\n",
            "}\n",
        );
        let diags = lint_source(src, "crates/x/src/lib.rs");
        assert_eq!(rules(&diags), ["atomics/fence-pair"]);
        assert_eq!(diags[0].line, Some(4));
    }

    #[test]
    fn unpaired_acquire_fence_is_flagged() {
        let src = concat!(
            "use std::sync::atomic::{fence, AtomicU64, Ordering};\n",
            "fn observe(stamp: &AtomicU64) -> u64 {\n",
            "    // relaxed: WRONG — the first stamp read must be acquire\n",
            "    let s = stamp.load(Ordering::Relaxed);\n",
            "    // ordering: orders payload loads before the re-check\n",
            "    fence(Ordering::Acquire);\n",
            "    s\n",
            "}\n",
        );
        let diags = lint_source(src, "crates/x/src/lib.rs");
        assert_eq!(rules(&diags), ["atomics/fence-pair"]);
        assert_eq!(diags[0].line, Some(6));
    }

    #[test]
    fn seqlock_shaped_fences_are_clean() {
        // The event ring's writer and reader shapes, reduced.
        let src = concat!(
            "use std::sync::atomic::{fence, AtomicU64, Ordering};\n",
            "fn write(stamp: &AtomicU64, word: &AtomicU64) {\n",
            "    // relaxed: ordered before the payload by the fence below\n",
            "    stamp.store(1, Ordering::Relaxed);\n",
            "    // ordering: release fence before the payload\n",
            "    fence(Ordering::Release);\n",
            "    // relaxed: stamp-guarded payload\n",
            "    word.store(7, Ordering::Relaxed);\n",
            "    // ordering: publishes the payload\n",
            "    stamp.store(2, Ordering::Release);\n",
            "}\n",
            "fn read(stamp: &AtomicU64, word: &AtomicU64) -> u64 {\n",
            "    // ordering: pairs with the writer's release store\n",
            "    let _s1 = stamp.load(Ordering::Acquire);\n",
            "    // relaxed: stamp-validated read\n",
            "    let w = word.load(Ordering::Relaxed);\n",
            "    // ordering: orders the payload loads before the re-check\n",
            "    fence(Ordering::Acquire);\n",
            "    // relaxed: the fence above orders this re-check\n",
            "    let _s2 = stamp.load(Ordering::Relaxed);\n",
            "    w\n",
            "}\n",
        );
        assert!(lint_source(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn fence_pairing_respects_function_boundaries() {
        // A release store in a *different* function must not satisfy the
        // fence: the pairing is per-function.
        let src = concat!(
            "use std::sync::atomic::{fence, AtomicU64, Ordering};\n",
            "fn a(stamp: &AtomicU64) {\n",
            "    // ordering: fence with no local release store\n",
            "    fence(Ordering::Release);\n",
            "}\n",
            "fn b(stamp: &AtomicU64) {\n",
            "    // ordering: unrelated publishing store\n",
            "    stamp.store(2, Ordering::Release);\n",
            "}\n",
        );
        let diags = lint_source(src, "crates/x/src/lib.rs");
        assert_eq!(rules(&diags), ["atomics/fence-pair"]);
    }

    #[test]
    fn ordering_census_counts_sites() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let census = classify_orderings(&root);
        // The event ring alone guarantees these floors.
        assert!(census.relaxed >= 10, "{census:?}");
        assert!(census.acquire >= 2, "{census:?}");
        assert!(census.release >= 2, "{census:?}");
        assert!(census.fences >= 2, "{census:?}");
        assert!(census.files_with_atomics >= 3, "{census:?}");
        assert_eq!(
            census.total(),
            census.relaxed + census.acquire + census.release + census.acq_rel + census.seq_cst
        );
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // The linter's home workspace must satisfy its own invariants.
        // When the test runs from the crate dir, the workspace root is
        // two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = lint_workspace(&root);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
