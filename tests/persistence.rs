//! SMA persistence across "restarts": SMA sets saved to real files,
//! reloaded, and used to answer Query 1 identically.

use smadb::exec::{run_query1, Query1Config};
use smadb::sma::{encode_sma_stream, load_sma_file, save_sma_file, SmaSet};
use smadb::storage::test_util::scratch_path;
use smadb::storage::{MemStore, PAGE_SIZE};
use smadb::tpcd::{generate_lineitem_table, Clustering, GenConfig};

/// Saves every SMA of `smas` as its own file in a fresh directory tagged
/// `tag` and loads them all back, as a restart would.
fn save_and_reload(smas: &SmaSet, tag: &str) -> SmaSet {
    let dir = scratch_path(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = smas
        .smas()
        .iter()
        .map(|sma| {
            let path = dir.join(format!("{}.sma", sma.def().name));
            save_sma_file(sma, &path).unwrap();
            path
        })
        .collect();
    let mut reloaded = SmaSet::new();
    for path in &paths {
        reloaded.push(load_sma_file(path).unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
    reloaded
}

#[test]
fn q1_sma_set_survives_a_restart_via_file_store() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
    let smas = SmaSet::build_query1_set(&table).unwrap();
    let before = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();

    let reloaded = save_and_reload(&smas, "sma_persistence");

    assert_eq!(reloaded.smas().len(), smas.smas().len());
    assert_eq!(reloaded.file_count(), smas.file_count());
    let after = run_query1(&table, Some(&reloaded), &Query1Config::default()).unwrap();
    assert_eq!(after.rows, before.rows);
    assert_eq!(after.plan_kind, before.plan_kind);
}

#[test]
fn persisted_pages_match_logical_size_accounting() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::diagonal_default()));
    let smas = SmaSet::build_query1_set(&table).unwrap();
    let mut physical_pages = 0u32;
    for sma in smas.smas() {
        physical_pages += encode_sma_stream(sma).len().div_ceil(PAGE_SIZE) as u32;
    }
    // The serialized form adds a definition header and value tags; it must
    // stay within a small factor of the paper's raw-entry accounting.
    let logical = smas.total_pages() as u32;
    assert!(
        physical_pages >= logical.min(smas.smas().len() as u32),
        "physical {physical_pages} vs logical {logical}"
    );
    assert!(
        physical_pages <= logical * 3 + smas.smas().len() as u32,
        "physical {physical_pages} vs logical {logical}"
    );
}

#[test]
fn maintained_then_persisted_smas_stay_consistent() {
    use smadb::tpcd::generate;
    let cfg = GenConfig::tiny(Clustering::SortedByShipdate);
    let (_, items) = generate(&cfg);
    let (base, extra) = items.split_at(items.len() - 100);
    let mut table = smadb::tpcd::load_lineitem(base, Box::new(MemStore::new()), 1, 1 << 14);
    let mut smas = SmaSet::build_query1_set(&table).unwrap();
    for item in extra {
        let t = item.to_tuple();
        let tid = table.append(&t).unwrap();
        smas.note_insert(table.bucket_of_page(tid.page), &t)
            .unwrap();
    }
    // Persist post-maintenance state and reload.
    let reloaded = save_and_reload(&smas, "sma_persistence_maintained");
    let a = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
    let b = run_query1(&table, Some(&reloaded), &Query1Config::default()).unwrap();
    let c = run_query1(&table, None, &Query1Config::default()).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(b.rows, c.rows);
}
