//! The public-surface ledger: every `pub` item in `crates/*/src`, one line
//! each, must match the committed `API.txt` at the repo root.
//!
//! The walk starts at each crate's `src/lib.rs` (and each `src/bin/*.rs`),
//! follows `mod` declarations into their files, and lists every item
//! declared plain `pub` as `crate::path::name kind`, where `kind` is one of
//! `fn struct enum trait type const static mod use`. A method is listed
//! under its inherent `impl`'s type (`crate::path::Type::name fn`); trait
//! impls add nothing, since their items carry no visibility of their own.
//! A `pub use` is one line whose name is its use tree, so the ledger has as
//! many lines as `grep -E '^\s*pub (fn|struct|enum|trait|type|const|static|mod|use)'`
//! finds in the same non-test text. `pub(crate)`, `pub(super)` and
//! `pub(in …)` items are not listed, and neither is anything under a
//! `#[cfg(test)]` attribute: test modules, test helpers and the
//! `#[cfg(test)] #[path = …] mod …;` files.
//!
//! On a difference the test fails and prints the lines to add to and to
//! remove from `API.txt`. There is no switch that rewrites the file: a
//! change that adds or removes a public item edits `API.txt` in the same
//! diff, so the surface grows or shrinks where a reviewer sees it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(&'static str),
    Open(char),
    Close(char),
    /// A literal or a lifetime: nothing the walk looks into.
    Other,
}

/// Splits Rust source into the tokens the walk needs, dropping comments,
/// string / char / byte literals and lifetimes (as [`Tok::Other`]).
fn tokenize(src: &str) -> Vec<Tok> {
    let s: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        let next = s.get(i + 1).copied().unwrap_or('\0');
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && next == '/' {
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == '*' {
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && s.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && s.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if let Some(end) = raw_string_end(&s, i) {
            out.push(Tok::Other);
            i = end;
        } else if c == '"' || (c == 'b' && next == '"') {
            i += if c == 'b' { 2 } else { 1 };
            while i < s.len() && s[i] != '"' {
                i += if s[i] == '\\' { 2 } else { 1 };
            }
            out.push(Tok::Other);
            i += 1;
        } else if c == '\'' || (c == 'b' && next == '\'') {
            if c == 'b' {
                i += 1;
            }
            // `'x'`, `'\n'`, `'\''`, `'\u{..}'` are chars; `'a` is a lifetime.
            if s.get(i + 1) == Some(&'\\') {
                i += 3;
                while i < s.len() && s[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if s.get(i + 2) == Some(&'\'') {
                i += 3;
            } else {
                i += 1;
                while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                    i += 1;
                }
            }
            out.push(Tok::Other);
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                i += 1;
            }
            let word: String = s[start..i].iter().collect();
            out.push(Tok::Ident(word));
        } else if c.is_ascii_digit() {
            while i < s.len()
                && (s[i].is_alphanumeric()
                    || s[i] == '_'
                    || (s[i] == '.' && s.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
            {
                i += 1;
            }
            out.push(Tok::Other);
        } else if "([{".contains(c) {
            out.push(Tok::Open(c));
            i += 1;
        } else if ")]}".contains(c) {
            out.push(Tok::Close(c));
            i += 1;
        } else {
            // `->` is one token, so its `>` never closes a generic list.
            let (punct, len) = match (c, next) {
                (':', ':') => ("::", 2),
                ('-', '>') => ("->", 2),
                ('=', '>') => ("=>", 2),
                ('!', _) => ("!", 1),
                ('#', _) => ("#", 1),
                (';', _) => (";", 1),
                ('<', _) => ("<", 1),
                ('>', _) => (">", 1),
                (',', _) => (",", 1),
                _ => ("?", 1),
            };
            out.push(Tok::Punct(punct));
            i += len;
        }
    }
    out
}

/// The end of a raw (byte) string literal starting at `i`, if one does.
fn raw_string_end(s: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if s.get(j) == Some(&'b') {
        j += 1;
    }
    if s.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while s.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if s.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    loop {
        if j >= s.len() {
            return Some(j);
        }
        if s[j] == '"' && (1..=hashes).all(|k| s.get(j + k) == Some(&'#')) {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
}

struct Walker {
    lines: Vec<String>,
    visited: BTreeSet<PathBuf>,
}

/// One source file's tokens and a cursor into them.
struct Cursor<'a> {
    toks: &'a [Tok],
    pos: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn ident_at(&self, offset: usize) -> Option<&str> {
        match self.toks.get(self.pos + offset) {
            Some(Tok::Ident(word)) => Some(word),
            _ => None,
        }
    }

    fn is_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    /// Skips one balanced group whose opener is at the cursor.
    fn skip_group(&mut self) {
        let mut depth = 0usize;
        while let Some(tok) = self.toks.get(self.pos) {
            self.pos += 1;
            match tok {
                Tok::Open(_) => depth += 1,
                Tok::Close(_) => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Skips to the end of an item: its `;`, or its first top-level `{ … }`
    /// when `braced` (fn, struct, enum, trait, union).
    fn skip_item(&mut self, braced: bool) {
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct(";") => {
                    self.pos += 1;
                    return;
                }
                Tok::Open('{') if braced => {
                    self.skip_group();
                    return;
                }
                Tok::Open(_) => self.skip_group(),
                _ => self.pos += 1,
            }
        }
    }

    /// Reads `#[…]` attributes; true if one of them is `#[cfg(test)]`.
    fn attributes(&mut self) -> bool {
        let mut cfg_test = false;
        while self.is_punct("#") {
            self.pos += 1;
            if self.is_punct("!") {
                self.pos += 1;
            }
            let start = self.pos;
            self.skip_group();
            let inner = &self.toks[start..self.pos];
            cfg_test |= inner.len() == 6
                && inner[1] == Tok::Ident("cfg".into())
                && inner[3] == Tok::Ident("test".into());
        }
        cfg_test
    }
}

impl Walker {
    /// Lists the items of the module whose body is the rest of `cur` (or up
    /// to its closing brace). `scope` is the module path; `impl_ty` is set
    /// inside an inherent impl. `dir` is where the module's child files live.
    fn items(&mut self, cur: &mut Cursor, scope: &str, dir: &Path, impl_ty: Option<&str>) {
        loop {
            match cur.peek() {
                None => return,
                Some(Tok::Close(_)) => {
                    cur.pos += 1;
                    return;
                }
                _ => {}
            }
            let cfg_test = cur.attributes();
            let mut public = false;
            if cur.ident_at(0) == Some("pub") {
                cur.pos += 1;
                public = true;
                if cur.peek() == Some(&Tok::Open('(')) {
                    public = false;
                    cur.skip_group();
                }
            }
            // Qualifiers: `const fn`, `unsafe fn`, `async fn`, `extern "C" fn`.
            while matches!(cur.ident_at(0), Some("unsafe" | "async" | "default"))
                || (cur.ident_at(0) == Some("const")
                    && cur.ident_at(1).is_some_and(|w| w == "fn" || w == "unsafe"))
                || (cur.ident_at(0) == Some("extern") && cur.ident_at(1) != Some("crate"))
            {
                cur.pos += 1;
                if cur.peek() == Some(&Tok::Other) {
                    cur.pos += 1;
                }
            }
            let Some(keyword) = cur.ident_at(0).map(str::to_string) else {
                // A stray token (e.g. the `;` after a macro call's group).
                if cur.peek() == Some(&Tok::Open('{')) {
                    cur.skip_group();
                } else {
                    cur.pos += 1;
                }
                continue;
            };
            let listed = public && !cfg_test;
            let prefix = match impl_ty {
                Some(ty) => format!("{scope}::{ty}"),
                None => scope.to_string(),
            };
            match keyword.as_str() {
                "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "union" => {
                    let mut name_at = 1;
                    if keyword == "static" && cur.ident_at(1) == Some("mut") {
                        name_at = 2;
                    }
                    let name = cur.ident_at(name_at).unwrap_or("_").to_string();
                    if listed {
                        self.lines.push(format!("{prefix}::{name} {keyword}"));
                    }
                    cur.pos += 1;
                    let braced = matches!(
                        keyword.as_str(),
                        "fn" | "struct" | "enum" | "trait" | "union"
                    );
                    cur.skip_item(braced);
                }
                "use" => {
                    cur.pos += 1;
                    let start = cur.pos;
                    cur.skip_item(false);
                    if listed {
                        let tree = render(&cur.toks[start..cur.pos - 1]);
                        self.lines.push(format!("{prefix}::{tree} use"));
                    }
                }
                "mod" => {
                    let name = cur.ident_at(1).unwrap_or("_").to_string();
                    cur.pos += 2;
                    if listed {
                        self.lines.push(format!("{scope}::{name} mod"));
                    }
                    let child_scope = format!("{scope}::{name}");
                    let child_dir = dir.join(&name);
                    if cur.is_punct(";") {
                        cur.pos += 1;
                        if !cfg_test {
                            let file = [dir.join(format!("{name}.rs")), child_dir.join("mod.rs")]
                                .into_iter()
                                .find(|f| f.exists())
                                .unwrap_or_else(|| {
                                    panic!("no file for `mod {name};` in {}", dir.display())
                                });
                            self.file(&file, &child_scope, &child_dir);
                        }
                    } else if cfg_test {
                        cur.skip_group();
                    } else {
                        cur.pos += 1;
                        self.items(cur, &child_scope, &child_dir, None);
                    }
                }
                "impl" => {
                    cur.pos += 1;
                    match impl_type(cur) {
                        Some(ty) if !cfg_test => {
                            cur.pos += 1;
                            self.items(cur, scope, dir, Some(&ty));
                        }
                        // A trait impl's items have no visibility of their own.
                        _ => cur.skip_group(),
                    }
                }
                "macro_rules" => {
                    cur.pos += 3;
                    cur.skip_group();
                }
                "extern" => cur.skip_item(false),
                _ if matches!(cur.toks.get(cur.pos + 1), Some(Tok::Punct("!"))) => {
                    // An item-position macro call (`thread_local! { … }`).
                    cur.pos += 2;
                    cur.skip_group();
                }
                other => panic!("unexpected item keyword `{other}` in {scope}"),
            }
        }
    }

    fn file(&mut self, path: &Path, scope: &str, dir: &Path) {
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        self.visited.insert(path.to_path_buf());
        let toks = tokenize(&src);
        let mut cur = Cursor {
            toks: &toks,
            pos: 0,
        };
        self.items(&mut cur, scope, dir, None);
        assert_eq!(
            cur.pos,
            toks.len(),
            "{}: unbalanced item walk",
            path.display()
        );
    }
}

/// Reads an impl header up to its `{`; the self type's name for an
/// inherent impl, `None` for a trait impl. Leaves the cursor on the `{`.
fn impl_type(cur: &mut Cursor) -> Option<String> {
    let mut angle = 0i32;
    let mut name = None;
    let mut is_trait_impl = false;
    let mut in_where = false;
    while let Some(tok) = cur.peek() {
        match tok {
            Tok::Open('{') if angle == 0 => break,
            Tok::Open(_) => {
                cur.skip_group();
                continue;
            }
            Tok::Punct("<") => angle += 1,
            Tok::Punct(">") => angle -= 1,
            Tok::Ident(word) if angle == 0 && !in_where => match word.as_str() {
                "for" => is_trait_impl = true,
                "where" => in_where = true,
                "dyn" | "mut" => {}
                _ => name = Some(word.clone()),
            },
            _ => {}
        }
        cur.pos += 1;
    }
    if is_trait_impl {
        None
    } else {
        name
    }
}

/// A use tree as written, with the spacing `rustfmt` gives it.
fn render(toks: &[Tok]) -> String {
    let mut out = String::new();
    for tok in toks {
        match tok {
            Tok::Ident(word) => {
                if out.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    out.push(' ');
                }
                out.push_str(word);
            }
            Tok::Punct(",") => out.push_str(", "),
            Tok::Punct(p) => out.push_str(p),
            Tok::Close(c) => {
                if out.ends_with(", ") {
                    out.truncate(out.len() - 2);
                }
                out.push(*c);
            }
            Tok::Open(c) => out.push(*c),
            Tok::Other => out.push('?'),
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The ledger of the tree as it is, sorted.
fn public_items(root: &Path) -> Vec<String> {
    let mut walker = Walker {
        lines: Vec::new(),
        visited: BTreeSet::new(),
    };
    let mut all_files = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crates.sort();
    for krate in crates {
        let src = krate.join("src");
        rust_files(&src, &mut all_files);
        let manifest = fs::read_to_string(krate.join("Cargo.toml")).unwrap();
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|l| l.strip_suffix('"'))
            .expect("package name")
            .replace('-', "_");
        if src.join("lib.rs").exists() {
            walker.file(&src.join("lib.rs"), &name, &src);
        }
        if let Ok(bins) = fs::read_dir(src.join("bin")) {
            let mut bins: Vec<PathBuf> = bins.map(|e| e.unwrap().path()).collect();
            bins.sort();
            for bin in bins {
                let stem = bin.file_stem().unwrap().to_string_lossy().to_string();
                walker.file(
                    &bin,
                    &format!("{name}::bin::{stem}"),
                    &src.join("bin").join(&stem),
                );
            }
        }
    }
    let orphans: Vec<_> = all_files
        .iter()
        .filter(|f| !walker.visited.contains(*f))
        .collect();
    assert!(
        orphans.is_empty(),
        "files outside every crate's module tree: {orphans:?}"
    );
    walker.lines.sort();
    walker.lines
}

#[test]
fn public_items_match_the_ledger() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let actual = public_items(root);
    let ledger = fs::read_to_string(root.join("API.txt")).expect("API.txt at the repo root");
    let mut expected: Vec<String> = ledger
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    expected.sort();
    if actual == expected {
        return;
    }
    // Multiset difference, so a duplicated line is seen too.
    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for line in &actual {
        *counts.entry(line).or_default() += 1;
    }
    for line in &expected {
        *counts.entry(line).or_default() -= 1;
    }
    let mut report = String::new();
    for (line, n) in &counts {
        for _ in 0..n.abs() {
            report.push_str(&format!("{} {line}\n", if *n > 0 { "+" } else { "-" }));
        }
    }
    panic!(
        "the public surface differs from API.txt ({} items in the tree, {} in the ledger).\n\
         Edit API.txt: add the `+` lines, remove the `-` lines.\n{report}",
        actual.len(),
        expected.len()
    );
}

#[test]
fn the_walk_sees_what_the_ledger_lists() {
    let src = r####"
        //! pub fn in_a_doc_comment() {}
        pub mod a { pub fn f() {} pub(crate) fn g() {} }
        pub struct S<T>(pub T);
        impl<T: Clone> S<T> where T: Copy { pub const fn new() -> u8 { '{'; b'}'; 0 } fn private() {} }
        impl std::fmt::Debug for S<u8> { fn fmt(&self) {} }
        pub use a::{f, f as h};
        #[cfg(test)]
        mod tests { pub fn helper() {} }
        #[cfg(test)]
        pub fn test_only() {}
        pub const C: &str = r#"pub fn in_a_string() {}"#;
        pub static T: [u8; 2] = [0; 2];
        thread_local! { pub static L: u8 = 0; }
        pub(super) type X = u8;
        pub trait Tr { fn required(&self); }
    "####;
    let dir = std::env::temp_dir();
    let toks = tokenize(src);
    let mut walker = Walker {
        lines: Vec::new(),
        visited: BTreeSet::new(),
    };
    let mut cur = Cursor {
        toks: &toks,
        pos: 0,
    };
    walker.items(&mut cur, "k", &dir, None);
    assert_eq!(
        walker.lines,
        [
            "k::a mod",
            "k::a::f fn",
            "k::S struct",
            "k::S::new fn",
            "k::a::{f, f as h} use",
            "k::C const",
            "k::T static",
            "k::Tr trait",
        ]
    );
}
