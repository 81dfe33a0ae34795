//! Lexer corner cases that must produce no findings (lint fixture).
//!
//! The linter reads token streams, not raw text: keywords and type names
//! inside strings, comments, raw strings and char literals are inert.

/// Docs may mention `HashMap`, `unsafe` or `Instant::now()`, and may show
/// the waiver syntax — `// inerf-lint: allow(hash-order) -- why` — without
/// creating a waiver.
pub(crate) fn strings() -> Vec<String> {
    vec![
        "unsafe { HashMap::new() }".to_string(),
        r#"SystemTime::now() in a raw "string""#.to_string(),
        String::from("Instant::now()"),
    ]
}

/* Block comments are inert too: unsafe HashMap SystemTime
   /* nested block comments close correctly: unsafe */
   still inside the outer comment: Instant::now() */
pub(crate) fn lifetimes<'a>(x: &'a [u8]) -> &'a [u8] {
    let _marker: char = 'u';
    let _bytes: &[u8] = b"unsafe bytes";
    let _range = 0..x.len();
    x
}
