//! The rule engine: file classification, rule catalog, and the lexical
//! checks themselves.
//!
//! Every rule has a stable ID (`L1-page-discipline`, `P1-unwrap`, ...) used
//! in diagnostics, allow directives, and the JSON report. The catalog is in
//! [`RULES`]; DESIGN.md §9 carries the prose rationale for each.

use crate::lexer::{lex, AllowDirective, Tok, Token};

/// Diagnostic severity. Both levels currently fail the build; the split
/// exists so future rules can land as warnings before being promoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Must be fixed or allowlisted with justification.
    Error,
    /// Reported and counted, but does not fail the run.
    Warn,
}

impl Severity {
    /// Lowercase label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One finding at a file:line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule ID, e.g. `P1-unwrap`.
    pub rule: &'static str,
    /// Severity of the rule that fired.
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation with the expected remedy.
    pub message: String,
    /// Justification text when an inline allow suppressed this finding
    /// (the finding is then reported at `Warn`, never dropped).
    pub allow_reason: Option<String>,
}

/// Catalog entry describing one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable ID.
    pub id: &'static str,
    /// Severity when it fires.
    pub severity: Severity,
    /// One-line summary for `--rules` output.
    pub summary: &'static str,
}

/// The full rule catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "L1-page-discipline",
        severity: Severity::Error,
        summary: "outside sma-storage, raw page access (read_page/write_page/SlottedPage) is forbidden — go through the buffer pool / Table",
    },
    RuleInfo {
        id: "L2-codec-bytes",
        severity: Severity::Error,
        summary: "outside the designated codec modules, raw to/from_le_bytes fiddling is forbidden — use sma-types byte helpers",
    },
    RuleInfo {
        id: "L3-type-deps",
        severity: Severity::Error,
        summary: "sma-types must not name upper-layer crates (sma-storage/core/exec/tpcd/cube)",
    },
    RuleInfo {
        id: "P1-unwrap",
        severity: Severity::Error,
        summary: "no .unwrap() in library non-test code — return the crate error enum",
    },
    RuleInfo {
        id: "P2-expect",
        severity: Severity::Error,
        summary: "no .expect(...) in library non-test code — return the crate error enum",
    },
    RuleInfo {
        id: "P3-panic",
        severity: Severity::Error,
        summary: "no panic!/todo!/unimplemented! in library non-test code",
    },
    RuleInfo {
        id: "P4-literal-index",
        severity: Severity::Error,
        summary: "no indexing by integer literal in codec/view/checksum/persist modules — use get()/first()/split_first()",
    },
    RuleInfo {
        id: "D1-wall-clock",
        severity: Severity::Error,
        summary: "no Instant/SystemTime outside cost.rs and the bench harness — route timing through sma_storage::cost",
    },
    RuleInfo {
        id: "D2-ordered-iteration",
        severity: Severity::Error,
        summary: "no HashMap/HashSet in exec/core paths whose iteration can feed output ordering — use BTreeMap/BTreeSet or an explicit sort",
    },
    RuleInfo {
        id: "U1-crate-header",
        severity: Severity::Error,
        summary: "library crates must carry #![forbid(unsafe_code)] and #![deny(missing_docs)]",
    },
    RuleInfo {
        id: "U2-debug-output",
        severity: Severity::Error,
        summary: "no println!/eprintln!/print!/eprint!/dbg! in library non-test code",
    },
    RuleInfo {
        id: "U3-narrowing-cast",
        severity: Severity::Error,
        summary: "no `as` narrowing casts in codec/view/checksum/persist modules — use try_from or the checked helpers in sma_types::bytes",
    },
    RuleInfo {
        id: "N1-socket-confinement",
        severity: Severity::Error,
        summary: "network/socket APIs (TcpListener, TcpStream, UdpSocket, Unix sockets) are confined to sma-server — lower layers must stay transport-free",
    },
    RuleInfo {
        id: "N2-unbounded-queue",
        severity: Severity::Error,
        summary: "no unbounded queues (mpsc::channel, VecDeque, LinkedList) in sma-server non-test code — overload must shed, not buffer; use bounded structures or sync_channel",
    },
    RuleInfo {
        id: "C1-columnar-confinement",
        severity: Severity::Error,
        summary: "columnar chunk primitives (chunk_pages/read_chunk/assemble_blob/is_columnar_page/COLUMNAR_MARKER*) are confined to the columnar codec modules — elsewhere go through Table::columnar_bucket and the typed ColumnarBucket API",
    },
    RuleInfo {
        id: "W1-bare-allow",
        severity: Severity::Error,
        summary: "sma-lint: allow(...) directives require a `-- justification`; bare allows do not suppress anything",
    },
    RuleInfo {
        id: "W2-stale-allow",
        severity: Severity::Error,
        summary: "a justified allow (inline or analyze-config) that suppresses nothing is stale — drop it so the allowlist only points at live code",
    },
    // Analysis rules (call-graph + dataflow passes; `--analyze`). Listed
    // here so `--rules` shows the full catalog and allow directives naming
    // them are recognized; the checks live in `crate::analyze`.
    RuleInfo {
        id: "A1-lock-order",
        severity: Severity::Error,
        summary: "analyze: lock acquisition order must be consistent workspace-wide, and no fsync/socket I/O may be reachable while a lock guard is live",
    },
    RuleInfo {
        id: "A2-budget-charging",
        severity: Severity::Error,
        summary: "analyze: every query-serving function reaching a page-read primitive must thread a QueryBudget or be on the ingest/recovery allowlist",
    },
    RuleInfo {
        id: "A3-error-swallowing",
        severity: Severity::Error,
        summary: "analyze: no `let _ =` on a Result, `Err(_) =>` payload discards, or bare `.ok();` — intentional sinks carry an inline allow with a reason",
    },
    RuleInfo {
        id: "A4-fsync-confinement",
        severity: Severity::Error,
        summary: "analyze: raw sync_all/sync_data only inside the approved wrappers, and every call path to a wrapper must pass a WAL/flush/compaction commit point",
    },
];

/// Which cargo target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Part of a `[lib]` target.
    Lib,
    /// `src/bin/**` or `src/main.rs`.
    Bin,
    /// `tests/**`.
    Test,
    /// `benches/**`.
    Bench,
    /// `examples/**`.
    Example,
}

/// Classification of one workspace source file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate the file belongs to (`sma-core`, or `smadb` for the root).
    pub crate_name: String,
    /// Which target kind the path maps to.
    pub target: Target,
    /// Whether the crate is one of the product library crates (vs. the
    /// bench harness or the linter itself).
    pub product: bool,
    /// Whether the file is designated test support (exempt from
    /// panic-freedom like test code, but still layered).
    pub test_support: bool,
}

/// Product library crates: the ones the panic-freedom and hygiene walls
/// apply to in full.
const PRODUCT_CRATES: &[&str] = &[
    "smadb",
    "sma-types",
    "sma-storage",
    "sma-core",
    "sma-exec",
    "sma-tpcd",
    "sma-cube",
    "sma-server",
];

/// Modules allowed to do raw little/big-endian byte codec work (L2) —
/// the row/value codec, the page codec, checksums, and the SMA image codec.
const CODEC_HOME: &[&str] = &[
    "crates/sma-types/",
    "crates/sma-storage/src/page.rs",
    "crates/sma-storage/src/checksum.rs",
    "crates/sma-core/src/persist.rs",
];

/// Modules where decoding untrusted bytes makes literal indexing and
/// narrowing casts the dangerous class (P4/U3 scope).
const CODEC_STRICT: &[&str] = &[
    "crates/sma-types/src/row.rs",
    "crates/sma-types/src/view.rs",
    "crates/sma-types/src/value.rs",
    "crates/sma-types/src/bytes.rs",
    "crates/sma-types/src/colblock.rs",
    "crates/sma-storage/src/page.rs",
    "crates/sma-storage/src/checksum.rs",
    "crates/sma-storage/src/columnar.rs",
    "crates/sma-core/src/persist.rs",
];

/// The only modules allowed to name the columnar chunk primitives (C1):
/// the block codec, the page chunker, and the table layer that glues them
/// to the buffer pool. Everyone else gets the typed, checked
/// `ColumnarBucket` API — a fourth caller of `read_chunk` would be a new
/// raw-byte reinterpretation site outside the audited codec surface.
const COLUMNAR_HOME: &[&str] = &[
    "crates/sma-types/src/colblock.rs",
    "crates/sma-storage/src/columnar.rs",
    "crates/sma-storage/src/table.rs",
];

/// Classifies a workspace-relative path (`crates/sma-core/src/sma.rs`).
pub fn classify(rel: &str) -> FileClass {
    let rel = rel.replace('\\', "/");
    // `crates/<name>/...` and the separate-workspace `perfbench/` package
    // are crates of their own; everything else is the root `smadb` package.
    let (crate_name, in_crate) = match rel.strip_prefix("crates/") {
        Some(r) => match r.split_once('/') {
            Some((name, rest)) => (name.to_string(), rest.to_string()),
            None => (r.to_string(), String::new()),
        },
        None => match rel.strip_prefix("perfbench/") {
            Some(rest) => ("perfbench".to_string(), rest.to_string()),
            None => ("smadb".to_string(), rel.clone()),
        },
    };
    let target = if in_crate.starts_with("tests/") {
        Target::Test
    } else if in_crate.starts_with("benches/") {
        Target::Bench
    } else if in_crate.starts_with("examples/") {
        Target::Example
    } else if in_crate.starts_with("src/bin/") || in_crate == "src/main.rs" {
        Target::Bin
    } else {
        Target::Lib
    };
    let product = PRODUCT_CRATES.contains(&crate_name.as_str());
    let test_support = rel.ends_with("test_util.rs");
    FileClass {
        crate_name,
        target,
        product,
        test_support,
    }
}

/// Lints one source file given its workspace-relative path.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let class = classify(rel_path);
    let lexed = lex(src);
    let in_test = test_spans(&lexed.tokens);
    let mut diags: Vec<Diagnostic> = Vec::new();

    let rel = rel_path.replace('\\', "/");
    let is_lib_code = class.target == Target::Lib;
    // "Panic-wall scope": product library code outside test modules and
    // test support files.
    let panic_scope = |idx: usize| -> bool {
        class.product
            && is_lib_code
            && !class.test_support
            && !in_test.get(idx).copied().unwrap_or(false)
    };
    let codec_home = CODEC_HOME.iter().any(|p| rel.starts_with(p));
    let codec_strict = CODEC_STRICT.contains(&rel.as_str());
    let columnar_home = COLUMNAR_HOME.contains(&rel.as_str());

    let toks = &lexed.tokens;
    let get = |i: usize| -> Option<&Token> { toks.get(i) };
    let ident_at = |i: usize| -> Option<&str> {
        match get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct_at = |i: usize, c: char| -> bool {
        matches!(get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    };

    for (i, t) in toks.iter().enumerate() {
        let line = t.line;
        match &t.tok {
            Tok::Ident(name) => {
                // --- P1 / P2: `.unwrap()` / `.expect(` --------------------
                if panic_scope(i) && i > 0 && punct_at(i - 1, '.') {
                    if name == "unwrap" && punct_at(i + 1, '(') && punct_at(i + 2, ')') {
                        diags.push(diag("P1-unwrap", &rel, line,
                            "`.unwrap()` in library non-test code — convert to the crate's error enum".into()));
                    }
                    if name == "expect" && punct_at(i + 1, '(') {
                        diags.push(diag("P2-expect", &rel, line,
                            "`.expect(..)` in library non-test code — convert to the crate's error enum".into()));
                    }
                }
                // --- P3: panic-family macros ------------------------------
                if panic_scope(i)
                    && matches!(name.as_str(), "panic" | "todo" | "unimplemented")
                    && punct_at(i + 1, '!')
                {
                    diags.push(diag(
                        "P3-panic",
                        &rel,
                        line,
                        format!("`{name}!` in library non-test code — return an error instead"),
                    ));
                }
                // --- U2: debug output -------------------------------------
                if panic_scope(i)
                    && matches!(
                        name.as_str(),
                        "println" | "eprintln" | "print" | "eprint" | "dbg"
                    )
                    && punct_at(i + 1, '!')
                {
                    diags.push(diag("U2-debug-output", &rel, line,
                        format!("`{name}!` in library code — thread results through return values or the bench harness")));
                }
                // --- D1: wall clock ---------------------------------------
                if class.product
                    && is_lib_code
                    && !class.test_support
                    && !in_test.get(i).copied().unwrap_or(false)
                    && !rel.ends_with("/cost.rs")
                    && matches!(name.as_str(), "Instant" | "SystemTime")
                {
                    diags.push(diag("D1-wall-clock", &rel, line,
                        format!("`{name}` outside cost.rs/bench harness — use sma_storage::cost::Stopwatch")));
                }
                // --- D2: hash-ordered collections in exec/core ------------
                if matches!(class.crate_name.as_str(), "sma-exec" | "sma-core")
                    && is_lib_code
                    && !in_test.get(i).copied().unwrap_or(false)
                    && matches!(name.as_str(), "HashMap" | "HashSet")
                {
                    diags.push(diag("D2-ordered-iteration", &rel, line,
                        format!("`{name}` in a deterministic exec path — use BTreeMap/BTreeSet or sort before emitting")));
                }
                // --- L1: page discipline ----------------------------------
                if class.crate_name != "sma-storage"
                    && class.product
                    && matches!(class.target, Target::Lib | Target::Bin)
                    && !in_test.get(i).copied().unwrap_or(false)
                    && matches!(
                        name.as_str(),
                        "read_page"
                            | "write_page"
                            | "SlottedPage"
                            | "stamp_page"
                            | "verify_page"
                            | "page_write_counter"
                    )
                {
                    diags.push(diag("L1-page-discipline", &rel, line,
                        format!("`{name}` outside sma-storage — all page access goes through the buffer pool or Table")));
                }
                // --- L2: codec byte fiddling ------------------------------
                if !codec_home
                    && class.product
                    && matches!(class.target, Target::Lib | Target::Bin)
                    && !in_test.get(i).copied().unwrap_or(false)
                    && matches!(
                        name.as_str(),
                        "from_le_bytes" | "to_le_bytes" | "from_be_bytes" | "to_be_bytes"
                    )
                {
                    diags.push(diag(
                        "L2-codec-bytes",
                        &rel,
                        line,
                        format!(
                            "raw `{name}` outside the codec modules — use sma_types::bytes helpers"
                        ),
                    ));
                }
                // --- C1: columnar codec confinement -----------------------
                // The chunk primitives hand out raw page bytes; every
                // caller added outside the audited trio is a new place
                // torn or hostile bytes could be misread as data.
                if !columnar_home
                    && class.product
                    && matches!(class.target, Target::Lib | Target::Bin)
                    && !in_test.get(i).copied().unwrap_or(false)
                    && matches!(
                        name.as_str(),
                        "chunk_pages"
                            | "read_chunk"
                            | "assemble_blob"
                            | "is_columnar_page"
                            | "COLUMNAR_MARKER0"
                            | "COLUMNAR_MARKER1"
                    )
                {
                    diags.push(diag("C1-columnar-confinement", &rel, line,
                        format!("`{name}` outside the columnar codec modules — use Table::columnar_bucket / ColumnarBucket instead of raw chunk bytes")));
                }
                // --- L3: sma-types upward deps ----------------------------
                if class.crate_name == "sma-types"
                    && matches!(
                        name.as_str(),
                        "sma_storage" | "sma_core" | "sma_exec" | "sma_tpcd" | "sma_cube" | "smadb"
                    )
                {
                    diags.push(diag("L3-type-deps", &rel, line,
                        format!("`{name}` named inside sma-types — the type layer must not know upper layers")));
                }
                // --- N1: socket confinement -------------------------------
                // The transport layer is sma-server's whole job; a socket
                // named anywhere below it is a layering leak that would
                // let storage or exec block on a network peer.
                if class.crate_name != "sma-server"
                    && class.product
                    && matches!(class.target, Target::Lib | Target::Bin)
                    && !in_test.get(i).copied().unwrap_or(false)
                    && matches!(
                        name.as_str(),
                        "TcpListener" | "TcpStream" | "UdpSocket" | "UnixListener" | "UnixStream"
                    )
                {
                    diags.push(diag("N1-socket-confinement", &rel, line,
                        format!("`{name}` outside sma-server — network transport is confined to the server crate")));
                }
                // --- N2: unbounded queues in the server -------------------
                // The admission design sheds overload with Busy; an
                // unbounded queue would silently re-introduce the failure
                // mode (memory growth + creeping latency) the server
                // exists to prevent.
                if class.crate_name == "sma-server"
                    && matches!(class.target, Target::Lib | Target::Bin)
                    && !in_test.get(i).copied().unwrap_or(false)
                    && matches!(name.as_str(), "channel" | "VecDeque" | "LinkedList")
                {
                    diags.push(diag("N2-unbounded-queue", &rel, line,
                        format!("`{name}` in sma-server — overload must shed (Busy), not queue; use a bounded structure or sync_channel")));
                }
                // --- U3: narrowing casts in codec modules -----------------
                if codec_strict && !in_test.get(i).copied().unwrap_or(false) && name == "as" {
                    if let Some(ty) = ident_at(i + 1) {
                        if matches!(ty, "u8" | "u16" | "u32" | "i8" | "i16" | "i32") {
                            diags.push(diag("U3-narrowing-cast", &rel, line,
                                format!("`as {ty}` narrowing cast in a codec module — use try_from or sma_types::bytes checked helpers")));
                        }
                    }
                }
            }
            // --- P4: indexing by integer literal --------------------------
            // Pattern: postfix-expression `[` <int> `]` where the token
            // before `[` ends an expression (ident, `)`, or `]`).
            Tok::Punct('[') if codec_strict && !in_test.get(i).copied().unwrap_or(false) => {
                {
                    let prev_postfix = i > 0
                        && matches!(
                            get(i - 1).map(|t| &t.tok),
                            Some(Tok::Ident(_))
                                | Some(Tok::Punct(')'))
                                | Some(Tok::Punct(']'))
                                | Some(Tok::Punct('?'))
                        );
                    // Exclude attribute heads `#[...]` and `#![...]`.
                    let attr = (i >= 1 && punct_at(i - 1, '#'))
                        || (i >= 2 && punct_at(i - 1, '!') && punct_at(i - 2, '#'));
                    if prev_postfix
                        && !attr
                        && matches!(get(i + 1).map(|t| &t.tok), Some(Tok::Int(_)))
                        && punct_at(i + 2, ']')
                    {
                        diags.push(diag("P4-literal-index", &rel, line,
                            "indexing by integer literal in a codec module — use get()/first()/split_first()".into()));
                    }
                }
            }
            _ => {}
        }
    }

    // --- U1: crate headers ----------------------------------------------
    let is_lib_root =
        rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    if is_lib_root && class.crate_name != "sma-lint" {
        for (needle, what) in [
            (["forbid", "unsafe_code"], "#![forbid(unsafe_code)]"),
            (["deny", "missing_docs"], "#![deny(missing_docs)]"),
        ] {
            if !has_inner_attr(
                toks,
                needle.first().copied().unwrap_or(""),
                needle.get(1).copied().unwrap_or(""),
            ) {
                diags.push(diag(
                    "U1-crate-header",
                    &rel,
                    1,
                    format!("library crate missing `{what}` header"),
                ));
            }
        }
    }

    apply_allows(diags, &lexed.allows, &rel)
}

/// Matches `#![<outer>(<inner>)]` anywhere in the token stream.
fn has_inner_attr(toks: &[Token], outer: &str, inner: &str) -> bool {
    for i in 0..toks.len() {
        let w = |k: usize| toks.get(i + k).map(|t| &t.tok);
        if matches!(w(0), Some(Tok::Punct('#')))
            && matches!(w(1), Some(Tok::Punct('!')))
            && matches!(w(2), Some(Tok::Punct('[')))
            && matches!(w(3), Some(Tok::Ident(s)) if s == outer)
            && matches!(w(4), Some(Tok::Punct('(')))
            && matches!(w(5), Some(Tok::Ident(s)) if s == inner)
        {
            return true;
        }
    }
    false
}

/// Computes, for every token index, whether it lies inside `#[cfg(test)]`
/// gated code (the attribute's item, brace-matched) — also covers
/// `#[cfg(any(test, ...))]`. Shared with the item parser ([`crate::parse`])
/// so the analysis passes see the same test-code boundary the lexical
/// rules do.
pub(crate) fn test_spans(toks: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip to end of the attribute `]`.
            let mut j = i + 1; // at `[`
            let mut depth = 0i32;
            while let Some(t) = toks.get(j) {
                match t.tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Skip any further attributes.
            while matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('#'))) {
                let mut depth = 0i32;
                let mut k = j + 1;
                while let Some(t) = toks.get(k) {
                    match t.tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k;
            }
            // Mark the gated item: to the matching `}` of its first brace
            // block, or to the first `;` at brace depth 0.
            let start = j;
            let mut depth = 0i32;
            let mut opened = false;
            while let Some(t) = toks.get(j) {
                match t.tok {
                    Tok::Punct('{') => {
                        depth += 1;
                        opened = true;
                    }
                    Tok::Punct('}') => {
                        depth -= 1;
                        if opened && depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    Tok::Punct(';') if !opened && depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            for flag in in_test.iter_mut().take(j).skip(start) {
                *flag = true;
            }
            // Also mark the attribute tokens themselves.
            for flag in in_test.iter_mut().take(start).skip(i) {
                *flag = true;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Does `#[cfg(...)]` start at token `i`, with `test` appearing among the
/// cfg predicate identifiers?
fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    if !matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('#'))) {
        return false;
    }
    if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) {
        return false;
    }
    if !matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "cfg") {
        return false;
    }
    // Scan the attribute body up to the matching `]` for an ident `test`.
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        match &t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(s) if s == "test" => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Applies allow directives: a justified directive on line N suppresses
/// matching diagnostics on lines N and N+1; a bare directive suppresses
/// nothing and fires `W1-bare-allow`; a justified directive naming a
/// token rule that suppresses nothing is stale and fires `W2-stale-allow`
/// (directives naming analysis rules are validated by `crate::analyze`,
/// which is the pass that produces those findings).
fn apply_allows(diags: Vec<Diagnostic>, allows: &[AllowDirective], rel: &str) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    // (directive index, rule index) pairs that suppressed something.
    let mut used: Vec<(usize, usize)> = Vec::new();
    for mut d in diags {
        for (ai, a) in allows.iter().enumerate() {
            if !a.justified || !(a.line == d.line || a.line + 1 == d.line) {
                continue;
            }
            if let Some(ri) = a.rules.iter().position(|r| r == d.rule) {
                used.push((ai, ri));
                // Suppressed findings stay in the report, downgraded to
                // Warn and carrying the justification — audit trail over
                // silence.
                d.severity = Severity::Warn;
                d.allow_reason = Some(a.reason.clone());
            }
        }
        out.push(d);
    }
    for (ai, a) in allows.iter().enumerate() {
        if !a.justified {
            out.push(diag(
                "W1-bare-allow",
                rel,
                a.line,
                format!(
                    "allow({}) without `-- justification` — bare allows are rejected and suppress nothing",
                    a.rules.join(", ")
                ),
            ));
            continue;
        }
        for (ri, rule) in a.rules.iter().enumerate() {
            if crate::analyze::ANALYSIS_RULE_IDS.contains(&rule.as_str()) {
                continue;
            }
            if !used.contains(&(ai, ri)) {
                out.push(diag(
                    "W2-stale-allow",
                    rel,
                    a.line,
                    format!(
                        "allow({rule}) suppresses nothing — the violation it excused is gone; drop the directive"
                    ),
                ));
            }
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

fn diag(rule: &'static str, file: &str, line: u32, message: String) -> Diagnostic {
    let severity = RULES
        .iter()
        .find(|r| r.id == rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Error);
    Diagnostic {
        rule,
        severity,
        file: file.to_string(),
        line,
        message,
        allow_reason: None,
    }
}
