//! The Placing Phase: materialise an RST onto a cluster.
//!
//! Paper Sec. III-G: *"HARL logically maps a large file into multiple
//! OrangeFS files, each representing a separate file region … a
//! region-to-file mapping table (R2F) is used to record the translation
//! from a logical file region to a physical OrangeFS file."*
//!
//! [`place`] turns each RST region into one physical [`FileLayout`] with
//! that region's per-class stripe widths and records the mapping in an
//! [`R2f`].

use harl_core::{LoadError, RegionStripeTable};
use harl_pfs::{ClusterConfig, FileId, FileLayout};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Region-to-file mapping: `file_of[i]` is the physical file backing
/// RST region `i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct R2f {
    file_of: Vec<FileId>,
}

impl R2f {
    /// Build from an explicit mapping.
    pub fn new(file_of: Vec<FileId>) -> Self {
        R2f { file_of }
    }

    /// The physical file backing region `region`.
    ///
    /// # Panics
    /// Panics for an unknown region index.
    pub fn file_of(&self, region: usize) -> FileId {
        self.file_of[region]
    }

    /// Number of mapped regions.
    pub fn len(&self) -> usize {
        self.file_of.len()
    }

    /// True when no regions are mapped.
    pub fn is_empty(&self) -> bool {
        self.file_of.is_empty()
    }

    /// Persist as JSON (stored next to the application, like the paper's
    /// R2F).
    pub fn save_to_path(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Load from JSON; errors carry the file, the line (for syntax
    /// errors) and the reason.
    pub fn load_from_path(path: &Path) -> Result<Self, LoadError> {
        harl_core::errors::read_json(path)
    }
}

/// A placed logical file: the RST, the physical layouts, and the R2F
/// mapping between them.
#[derive(Debug, Clone)]
pub struct PlacedFile {
    /// The layout decision being materialised.
    pub rst: RegionStripeTable,
    /// Physical file layouts, indexable by [`FileId`].
    pub files: Vec<FileLayout>,
    /// Region → physical file mapping.
    pub r2f: R2f,
}

/// Materialise `rst` on `cluster`: one physical file per region, striped
/// with the region's per-class widths.
///
/// `first_file_id` allows placing several logical files in one simulation
/// (physical ids are global).
pub fn place(
    cluster: &ClusterConfig,
    rst: &RegionStripeTable,
    first_file_id: FileId,
) -> PlacedFile {
    let mut files = Vec::with_capacity(rst.len());
    let mut mapping = Vec::with_capacity(rst.len());
    for (i, entry) in rst.entries().iter().enumerate() {
        files.push(FileLayout::for_classes(cluster, entry.widths()));
        mapping.push(first_file_id + i);
    }
    PlacedFile {
        rst: rst.clone(),
        files,
        r2f: R2f::new(mapping),
    }
}

/// Projected bytes stored per server for a file of `file_size` bytes under
/// `rst` — used by the space-balancing migration extension and by tests
/// asserting where data lands.
pub fn bytes_per_server(
    cluster: &ClusterConfig,
    rst: &RegionStripeTable,
    file_size: u64,
) -> Vec<u64> {
    let mut totals = vec![0u64; cluster.server_count()];
    for entry in rst.entries() {
        let len = entry.len.min(file_size.saturating_sub(entry.offset));
        if len == 0 {
            continue;
        }
        let layout = FileLayout::for_classes(cluster, entry.widths());
        for (server, bytes) in layout.split(0, len) {
            totals[server] += bytes;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_core::RstEntry;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn rst() -> RegionStripeTable {
        RegionStripeTable::new(vec![
            RstEntry::two(0, 8 * MB, 16 * KB, 64 * KB),
            RstEntry::two(8 * MB, 8 * MB, 0, 64 * KB),
        ])
    }

    #[test]
    fn one_file_per_region() {
        let cluster = ClusterConfig::paper_default();
        let placed = place(&cluster, &rst(), 0);
        assert_eq!(placed.files.len(), 2);
        assert_eq!(placed.r2f.len(), 2);
        assert_eq!(placed.r2f.file_of(0), 0);
        assert_eq!(placed.r2f.file_of(1), 1);
        // Region 1 has h = 0: its physical file lives on SServers only.
        assert_eq!(placed.files[1].servers(), &[6, 7]);
    }

    #[test]
    fn first_file_id_offsets_mapping() {
        let cluster = ClusterConfig::paper_default();
        let placed = place(&cluster, &rst(), 10);
        assert_eq!(placed.r2f.file_of(0), 10);
        assert_eq!(placed.r2f.file_of(1), 11);
    }

    #[test]
    fn bytes_per_server_conserve() {
        let cluster = ClusterConfig::paper_default();
        let table = rst();
        let file_size = table.file_size();
        let per = bytes_per_server(&cluster, &table, file_size);
        assert_eq!(per.iter().sum::<u64>(), file_size);
        // Region 1 contributes nothing to HServers.
        let layout0 = FileLayout::for_classes(&cluster, &[16 * KB, 64 * KB]);
        let h_expect: u64 = layout0
            .split(0, 8 * MB)
            .iter()
            .filter(|&&(srv, _)| srv < 6)
            .map(|&(_, b)| b)
            .sum();
        assert_eq!(per[..6].iter().sum::<u64>(), h_expect);
    }

    #[test]
    fn r2f_round_trip() {
        let r = R2f::new(vec![3, 4, 5]);
        let dir = std::env::temp_dir().join("harl-r2f-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r2f.json");
        r.save_to_path(&path).unwrap();
        assert_eq!(R2f::load_from_path(&path).unwrap(), r);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn r2f_malformed_file_reports_line() {
        let dir = std::env::temp_dir().join("harl-r2f-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r2f-malformed.json");
        std::fs::write(&path, "{\n  \"file_of\": [1, 2,\n}").unwrap();
        let err = R2f::load_from_path(&path).unwrap_err();
        assert_eq!(err.path, path);
        assert!(
            err.line.is_some(),
            "parse errors should carry a line: {err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
