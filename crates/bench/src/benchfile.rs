//! The one reader and writer of `BENCH_engine.json`.
//!
//! Three binaries record into the file: `perf_smoke` (engine rows and the
//! queue micro-benchmarks), `run_all` (`run_all_jobs_timing`) and
//! `fork_sweep` (`fork_sweep`).  Each sets only its own top-level blocks;
//! every other block is carried through unchanged and in its place, so the
//! regenerators can run in any order.  A missing file starts as an empty
//! object.  A file that does not parse is an error and is left untouched:
//! silently starting over would drop the other binaries' rows.
use serde_json::Value;
use std::io;
use std::path::Path;

/// The engine benchmark file, relative to the repository root the
/// binaries run from.
pub const ENGINE: &str = "BENCH_engine.json";

/// The file's top-level fields in file order; a missing file reads as
/// none.
pub fn read(path: impl AsRef<Path>) -> io::Result<Vec<(String, Value)>> {
    let path = path.as_ref();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    match serde_json::from_str(&text) {
        Ok(Value::Obj(fields)) => Ok(fields),
        Ok(_) => Err(invalid(path, "not a JSON object")),
        Err(e) => Err(invalid(path, e)),
    }
}

/// Replaces each named top-level block, or appends it when the file lacks
/// it.
pub fn set_blocks(path: impl AsRef<Path>, blocks: Vec<(String, Value)>) -> io::Result<()> {
    update(path, |fields| {
        for (key, value) in blocks {
            match fields.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key, value)),
            }
        }
    })
}

/// Sets row `row_key` of the keyed-row block `block`, keeping its other
/// rows.  A new row is inserted in key order.
pub fn set_row(path: impl AsRef<Path>, block: &str, row_key: &str, row: Value) -> io::Result<()> {
    update(path, |fields| {
        let rows = match fields.iter_mut().find(|(k, _)| k == block) {
            Some((_, v)) => v,
            None => {
                fields.push((block.to_owned(), Value::Obj(Vec::new())));
                &mut fields.last_mut().expect("block just pushed").1
            }
        };
        if !matches!(rows, Value::Obj(_)) {
            *rows = Value::Obj(Vec::new());
        }
        if let Value::Obj(rows) = rows {
            match rows.iter_mut().find(|(k, _)| k == row_key) {
                Some((_, v)) => *v = row,
                None => {
                    rows.push((row_key.to_owned(), row));
                    rows.sort_by(|a, b| a.0.cmp(&b.0));
                }
            }
        }
    })
}

fn update(path: impl AsRef<Path>, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> io::Result<()> {
    let path = path.as_ref();
    let mut fields = read(path)?;
    edit(&mut fields);
    let text = serde_json::to_string_pretty(&Value::Obj(fields)).map_err(|e| invalid(path, e))?;
    std::fs::write(path, text + "\n")
}

fn invalid(path: &Path, why: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {why}", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh directory under the system temp dir, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("ktau-benchfile-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    const OTHER: &str = "{\n  \"bench\": \"perf_smoke\",\n  \"fork_sweep\": {\n    \"jobs_1\": {\n      \
                         \"z\": 1,\n      \"a\": 0.5\n    }\n  },\n  \"tail\": [\n    true,\n    null\n  ]\n}\n";

    #[test]
    fn other_blocks_survive_byte_for_byte_in_key_order() {
        let dir = Scratch::new("survive");
        let path = dir.0.join("b.json");
        std::fs::write(&path, OTHER).unwrap();
        let row = Value::Obj(vec![("wall_s".into(), Value::F64(1.5))]);
        set_row(&path, "run_all_jobs_timing", "jobs_1_cold", row).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let added = "  \"run_all_jobs_timing\": {\n    \"jobs_1_cold\": {\n      \
                     \"wall_s\": 1.5\n    }\n  }\n}\n";
        let kept = OTHER.strip_suffix("\n}\n").unwrap();
        assert_eq!(text, format!("{kept},\n{added}"));
        // Replacing an existing block keeps its position.
        set_blocks(&path, vec![("bench".into(), Value::Str("again".into()))]).unwrap();
        let keys: Vec<String> = read(&path).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["bench", "fork_sweep", "tail", "run_all_jobs_timing"]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.replacen("\"again\"", "\"perf_smoke\"", 1),
            format!("{kept},\n{added}")
        );
    }

    #[test]
    fn rows_insert_in_key_order_and_replace_in_place() {
        let dir = Scratch::new("rows");
        let path = dir.0.join("b.json");
        for (key, n) in [("jobs_2", 2), ("jobs_1", 1), ("jobs_2", 20)] {
            set_row(&path, "fork_sweep", key, Value::U64(n)).unwrap();
        }
        let fields = read(&path).unwrap();
        assert_eq!(
            fields,
            [(
                "fork_sweep".to_owned(),
                Value::Obj(vec![
                    ("jobs_1".into(), Value::U64(1)),
                    ("jobs_2".into(), Value::U64(20)),
                ])
            )]
        );
    }

    #[test]
    fn output_ends_with_newline() {
        let dir = Scratch::new("newline");
        let path = dir.0.join("b.json");
        set_blocks(&path, vec![("bench".into(), Value::Str("x".into()))]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\n  \"bench\": \"x\"\n}\n"
        );
    }

    #[test]
    fn truncated_file_is_an_error_and_left_untouched() {
        let dir = Scratch::new("truncated");
        let path = dir.0.join("b.json");
        let cut = &OTHER[..OTHER.len() / 2];
        std::fs::write(&path, cut).unwrap();
        assert!(set_row(&path, "fork_sweep", "jobs_1", Value::U64(1)).is_err());
        assert!(set_blocks(&path, vec![("bench".into(), Value::Null)]).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), cut);
        std::fs::write(&path, "[1, 2]\n").unwrap();
        assert!(set_blocks(&path, vec![("bench".into(), Value::Null)]).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[1, 2]\n");
    }

    #[test]
    fn committed_file_is_in_written_form() {
        // A regenerator that rewrites the committed file changes only the
        // rows it measured, never the layout of the rest.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(ENGINE);
        let text = std::fs::read_to_string(&path).unwrap();
        let written = serde_json::to_string_pretty(&Value::Obj(read(&path).unwrap())).unwrap();
        assert_eq!(written + "\n", text);
    }

    #[test]
    fn missing_parent_directory_is_an_error() {
        let dir = Scratch::new("noparent");
        let path = dir.0.join("absent").join("b.json");
        assert!(set_row(&path, "fork_sweep", "jobs_1", Value::U64(1)).is_err());
        assert!(!path.exists());
    }
}
