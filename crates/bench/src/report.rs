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

/// The same breakdown as an inline JSON object.
pub fn disk_breakdown_json(s: &DiskStats) -> Json {
    Json::inline()
        .field("busy_us", s.busy_us())
        .field("seek_us", s.seek_us)
        .field("rotation_us", s.rotation_us)
        .field("lost_rev_us", s.lost_rev_us)
        .field("lost_revolutions", s.lost_revolutions)
        .field("transfer_us", s.transfer_us)
        .field("reads", s.reads)
        .field("writes", s.writes)
        .field("label_ops", s.label_ops)
        .field("sectors_read", s.sectors_read)
        .field("sectors_written", s.sectors_written)
        .field("seeks", s.seeks)
        .field("short_seeks", s.short_seeks)
}

/// The platters a run ends on, as a JSON string: one disk's
/// [`cedar_disk::SimDisk::platter_digest`] in hex, or for several the
/// FNV-1a of their digests in order. Two builds that leave the same
/// bytes on every platter print the same string.
pub fn platter_json(digests: &[u64]) -> Json {
    let digest = match digests {
        [one] => *one,
        many => cedar_vol::codec::fnv1a(
            &many
                .iter()
                .flat_map(|d| d.to_le_bytes())
                .collect::<Vec<u8>>(),
        ),
    };
    Json::Lit(format!("\"{digest:016x}\""))
}

/// A JSON value as the bench artifacts write it (the build has no
/// serde). Objects keep their members in insertion order. Each object
/// and array is a block (one member a line, two spaces of indent a
/// level) or inline (`{"a": 1, "b": 2}`). A scalar keeps the text it
/// was formatted to, so a `{:.3}` figure stays three places.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number, `null` or a quoted string, as written.
    Lit(String),
    /// Whether a block, and the members.
    Object(bool, Vec<(String, Json)>),
    /// Whether a block, and the items.
    Array(bool, Vec<Json>),
}

impl Json {
    /// An empty object rendered one member a line.
    pub fn block() -> Self {
        Json::Object(true, Vec::new())
    }

    /// An empty object rendered on one line.
    pub fn inline() -> Self {
        Json::Object(false, Vec::new())
    }

    /// An array rendered one item a line: a table's rows.
    pub fn rows(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Array(true, items.into_iter().collect())
    }

    /// `x` with `places` decimals.
    pub fn fixed(x: f64, places: usize) -> Self {
        Json::Lit(format!("{x:.places$}"))
    }

    /// A number as `Display` writes it.
    pub fn num(x: impl std::fmt::Display) -> Self {
        Json::Lit(x.to_string())
    }

    /// This object with `key: value` appended.
    ///
    /// # Panics
    ///
    /// When `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        let Json::Object(_, members) = &mut self else {
            panic!("field {key:?} on a non-object {self:?}");
        };
        members.push((key.to_string(), value.into()));
        self
    }

    /// The document as an artifact holds it, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (block, brackets, entries): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Lit(text) => return out.push_str(text),
            Json::Object(block, members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                (*block, ('{', '}'), members.collect())
            }
            Json::Array(block, items) => (
                *block,
                ('[', ']'),
                items.iter().map(|v| (None, v)).collect(),
            ),
        };
        out.push(brackets.0);
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if block {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                out.push_str(&format!("\"{key}\": "));
            }
            value.write(out, depth + 1);
        }
        if block && !entries.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(brackets.1);
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::num(n)
    }
}

/// A string: names and hex digests, none of which needs an escape.
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        debug_assert!(!s.contains(['"', '\\']) && !s.contains(char::is_control));
        Json::Lit(format!("\"{s}\""))
    }
}

/// `null` for `None`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or_else(|| Json::Lit("null".into()), Into::into)
    }
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
        let json = disk_breakdown_json(&s).render();
        assert!(json.contains("\"busy_us\": 2000000"));
        assert!(json.contains("\"lost_revolutions\": 15"));
    }

    #[test]
    fn json_layout_rules() {
        let doc = Json::block()
            .field("bench", "demo")
            .field("pace", Json::num(0.02))
            .field("mean", Json::fixed(2.0 / 3.0, 3))
            .field("at", None::<u64>)
            .field(
                "gate",
                Json::inline()
                    .field("n", 3u64)
                    .field("x", Json::fixed(0.5, 6)),
            )
            .field(
                "rows",
                Json::rows((1..=2u64).map(|i| Json::inline().field("i", i).field("ok", "yes"))),
            )
            .field(
                "mode",
                Json::block().field("lag", Json::inline().field("p50", 7u64)),
            );
        assert_eq!(
            doc.render(),
            concat!(
                "{\n",
                "  \"bench\": \"demo\",\n",
                "  \"pace\": 0.02,\n",
                "  \"mean\": 0.667,\n",
                "  \"at\": null,\n",
                "  \"gate\": {\"n\": 3, \"x\": 0.500000},\n",
                "  \"rows\": [\n",
                "    {\"i\": 1, \"ok\": \"yes\"},\n",
                "    {\"i\": 2, \"ok\": \"yes\"}\n",
                "  ],\n",
                "  \"mode\": {\n",
                "    \"lag\": {\"p50\": 7}\n",
                "  }\n",
                "}\n"
            )
        );
    }

    #[test]
    fn breakdown_of_idle_disk_has_no_nans() {
        let line = disk_breakdown("idle", &DiskStats::default());
        assert!(line.contains("(0%)"));
    }
}
