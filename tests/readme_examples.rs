//! README's "More examples" table and `examples/` name the same programs:
//! every row's `` `name` `` is an `examples/<name>.rs`, and every example
//! has a row.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn readme_example_table_matches_the_examples_directory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let table = readme
        .split_once("More examples:")
        .expect("README has a \"More examples:\" table")
        .1
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'));
    let rows: BTreeSet<String> = table
        .filter_map(|row| row.strip_prefix("| `")?.split_once('`').map(|(name, _)| name.to_owned()))
        .collect();
    let examples: BTreeSet<String> = std::fs::read_dir(root.join("examples"))
        .expect("examples/")
        .map(|entry| entry.expect("examples/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().expect("file name").to_string_lossy().into_owned())
        .collect();
    assert!(!rows.is_empty(), "the table lists no example");
    assert_eq!(rows, examples, "README's example rows (left) against examples/*.rs (right)");
}
