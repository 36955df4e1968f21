//! Plain-text table rendering in the paper's style.

use cedar_disk::DiskStats;

/// A simple aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n{}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("  ");
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}", cell, w = widths[i] + 2));
                } else {
                    s.push_str(&format!("{:>w$}", cell, w = widths[i] + 2));
                }
            }
            s
        };
        out.push_str(&line(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        out.push_str(
            &"  "
                .chars()
                .chain("-".repeat(total - 2).chars())
                .collect::<String>(),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Renders the §6 disk-time breakdown — the components of `busy_us`
/// (seek / rotation / lost revolutions / transfer) with their shares —
/// as one line for the bench binaries.
pub fn disk_breakdown(label: &str, s: &DiskStats) -> String {
    let busy = s.busy_us();
    let pct = |part: u64| {
        if busy == 0 {
            0.0
        } else {
            100.0 * part as f64 / busy as f64
        }
    };
    format!(
        concat!(
            "{}: disk busy {:.3} s = seek {:.3} s ({:.0}%) ",
            "+ rotation {:.3} s ({:.0}%) + lost-rev {:.3} s ({:.0}%, {} revs) ",
            "+ transfer {:.3} s ({:.0}%)"
        ),
        label,
        busy as f64 / 1e6,
        s.seek_us as f64 / 1e6,
        pct(s.seek_us),
        s.rotation_us as f64 / 1e6,
        pct(s.rotation_us),
        s.lost_rev_us as f64 / 1e6,
        pct(s.lost_rev_us),
        s.lost_revolutions,
        s.transfer_us as f64 / 1e6,
        pct(s.transfer_us),
    )
}

/// The same breakdown as a JSON object fragment (hand-rolled — no serde
/// in the build environment).
pub fn disk_breakdown_json(s: &DiskStats) -> String {
    format!(
        concat!(
            "{{\"busy_us\": {}, \"seek_us\": {}, \"rotation_us\": {}, ",
            "\"lost_rev_us\": {}, \"lost_revolutions\": {}, \"transfer_us\": {}, ",
            "\"reads\": {}, \"writes\": {}, \"label_ops\": {}, ",
            "\"sectors_read\": {}, \"sectors_written\": {}, \"seeks\": {}, ",
            "\"short_seeks\": {}}}"
        ),
        s.busy_us(),
        s.seek_us,
        s.rotation_us,
        s.lost_rev_us,
        s.lost_revolutions,
        s.transfer_us,
        s.reads,
        s.writes,
        s.label_ops,
        s.sectors_read,
        s.sectors_written,
        s.seeks,
        s.short_seeks,
    )
}

/// The platters a run ends on, as a JSON string: one disk's
/// [`cedar_disk::SimDisk::platter_digest`] in hex, or for several the
/// FNV-1a of their digests in order. Two builds that leave the same
/// bytes on every platter print the same string.
pub fn platter_json(digests: &[u64]) -> String {
    let digest = match digests {
        [one] => *one,
        many => cedar_vol::codec::fnv1a(
            &many
                .iter()
                .flat_map(|d| d.to_le_bytes())
                .collect::<Vec<u8>>(),
        ),
    };
    format!("\"{digest:016x}\"")
}

/// Formats a speed-up/ratio with two decimals and an `×`.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.2}x", a / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["op", "value"]);
        t.row(&["create".into(), "42".into()]);
        t.row(&["x".into(), "123456".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("create"));
        assert!(s.contains("123456"));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn breakdown_components_and_json_agree() {
        let s = DiskStats {
            seek_us: 1_000_000,
            rotation_us: 500_000,
            lost_rev_us: 250_000,
            lost_revolutions: 15,
            transfer_us: 250_000,
            ..Default::default()
        };
        let line = disk_breakdown("run", &s);
        assert!(line.contains("disk busy 2.000 s"));
        assert!(line.contains("seek 1.000 s (50%)"));
        assert!(line.contains("lost-rev 0.250 s (12%, 15 revs)"));
        let json = disk_breakdown_json(&s);
        assert!(json.contains("\"busy_us\": 2000000"));
        assert!(json.contains("\"lost_revolutions\": 15"));
    }

    #[test]
    fn breakdown_of_idle_disk_has_no_nans() {
        let line = disk_breakdown("idle", &DiskStats::default());
        assert!(line.contains("(0%)"));
    }
}
