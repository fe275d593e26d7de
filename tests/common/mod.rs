//! Helpers shared by the campaign-artifact integration tests.

/// Zeroes every `"t_s"` / `"elapsed_s"` value in a campaign JSON document.
/// Wall-clock fields legitimately differ between any two runs; everything
/// else in a `campaign.json` is determined by the seed and budget.
pub fn strip_wallclock(mut s: String) -> String {
    for key in ["\"t_s\":", "\"elapsed_s\":"] {
        let mut from = 0;
        while let Some(rel) = s[from..].find(key) {
            let start = from + rel + key.len();
            let end = s[start..].find([',', '}', '\n']).map_or(s.len(), |e| start + e);
            s.replace_range(start..end, "0");
            from = start + 1;
        }
    }
    s
}
