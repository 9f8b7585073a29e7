//! Small numeric helpers for the metrics.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; 0 when
/// empty.
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let h = (values.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(values.len() - 1);
    values[lo] + (h - lo as f64) * (values[hi] - values[lo])
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
