//! Integration tests for the phase-1 symbol indexer: structural edge
//! cases (nested modules, impl blocks, raw strings).

use std::path::Path;

use gnn4ip_analysis::index::index_file;

#[test]
fn nested_modules_qualify_fn_records() {
    let fi = index_file(
        Path::new("crates/demo/src/lib.rs"),
        "mod outer {\n\
         \x20   pub mod inner {\n\
         \x20       pub fn leaf() {}\n\
         \x20   }\n\
         \x20   pub fn mid() {}\n\
         }\n\
         pub fn top() {}\n",
    );
    let mods: Vec<(&str, &str)> = fi
        .fns
        .iter()
        .map(|f| (f.name.as_str(), f.module.as_str()))
        .collect();
    assert_eq!(
        mods,
        vec![("leaf", "outer::inner"), ("mid", "outer"), ("top", "")]
    );
}

#[test]
fn impl_blocks_set_owners_through_nesting() {
    let fi = index_file(
        Path::new("crates/demo/src/lib.rs"),
        "pub struct A;\n\
         pub struct B;\n\
         impl A {\n\
         \x20   pub fn one(&self) {}\n\
         }\n\
         mod m {\n\
         \x20   impl super::B {\n\
         \x20       pub fn two(&self) {}\n\
         \x20   }\n\
         }\n\
         pub fn free() {}\n",
    );
    let displays: Vec<String> = fi.fns.iter().map(|f| f.display()).collect();
    assert_eq!(displays, vec!["A::one", "B::two", "free"]);
}

#[test]
fn raw_strings_hide_call_like_text() {
    let fi = index_file(
        Path::new("crates/demo/src/lib.rs"),
        "pub fn template() -> &'static str {\n\
         \x20   r#\"fn fake() { evil.lock(); panic!(\"no\") }\"#\n\
         }\n",
    );
    assert_eq!(fi.fns.len(), 1, "the quoted fn is text, not an item");
    let f = &fi.fns[0];
    assert!(f.calls.is_empty(), "{:?}", f.calls);
    assert!(f.panics.is_empty(), "{:?}", f.panics);
}
