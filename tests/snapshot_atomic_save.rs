//! `SAVE SNAPSHOT` replaces its file atomically: a `LOAD SNAPSHOT` of the
//! same path while saves run reads the old file or the new one, never a
//! prefix. Held in process (two threads) and through two served
//! connections; every load must succeed and load one of the catalogs the
//! saves wrote.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use tpdb::server::{Client, Server, ServerConfig};
use tpdb::storage::Catalog;

/// Loads of the shared path each test makes while the saves run.
const LOADS: usize = 200;

/// A catalog of a `meteo_like` pair named `{prefix}_r` and `{prefix}_s`.
fn catalog(prefix: &str, tuples: usize, seed: u64) -> Catalog {
    let (r, s) = tpdb::datagen::meteo_like(tuples, seed);
    let mut catalog = Catalog::new();
    catalog.register(r.renamed(&format!("{prefix}_r"))).unwrap();
    catalog.register(s.renamed(&format!("{prefix}_s"))).unwrap();
    catalog
}

fn shared_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tpdb-atomic-save-{tag}-{}.snap",
        std::process::id()
    ))
}

#[test]
fn loads_during_saves_read_a_whole_file_in_process() {
    let path = shared_path("in-process");
    let written = [catalog("a", 600, 1), catalog("b", 300, 2)];
    let names: Vec<Vec<String>> = written.iter().map(Catalog::relation_names).collect();
    written[0].save_snapshot(&path).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let saver = {
        let (done, path) = (Arc::clone(&done), path.clone());
        thread::spawn(move || {
            let mut saves = 0usize;
            while !done.load(Ordering::Relaxed) {
                written[saves % 2].save_snapshot(&path).unwrap();
                saves += 1;
            }
            saves
        })
    };
    let mut loaded = Catalog::new();
    for i in 0..LOADS {
        loaded
            .load_snapshot(&path)
            .unwrap_or_else(|e| panic!("load {i}: {e}"));
        assert!(names.contains(&loaded.relation_names()), "load {i}");
    }
    done.store(true, Ordering::Relaxed);
    assert!(saver.join().unwrap() > 0);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn served_loads_during_served_saves_read_a_whole_file() {
    let path = shared_path("served");
    let server = Server::start(catalog("a", 600, 3), ServerConfig::default()).unwrap();
    let save = format!("SAVE SNAPSHOT '{}'", path.display());
    let load = format!("LOAD SNAPSHOT '{}'", path.display());
    let mut saver = Client::connect(server.local_addr()).unwrap();
    saver.query(&save).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let saving = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut saves = 0usize;
            while !done.load(Ordering::Relaxed) {
                saver.query(&save).unwrap();
                saves += 1;
            }
            saver.close().unwrap();
            saves
        })
    };
    let mut loader = Client::connect(server.local_addr()).unwrap();
    for i in 0..LOADS {
        loader
            .query(&load)
            .unwrap_or_else(|e| panic!("load {i}: {e}"));
    }
    done.store(true, Ordering::Relaxed);
    assert!(saving.join().unwrap() > 0);
    loader.close().unwrap();
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}
