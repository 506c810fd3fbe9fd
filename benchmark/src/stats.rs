//! Order statistics over a run's samples.

use htp_server::json::{obj, Json};

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive" method).
/// With one sample both quartiles are that sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// A metric's samples with their summary, as the results file holds it.
pub fn summary(unit: &str, xs: &[f64]) -> Json {
    let (q1, q3) = quartiles(xs);
    let v = sorted(xs);
    obj(vec![
        ("unit", Json::Str(unit.to_owned())),
        ("median", Json::Num(median(xs))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("min", Json::Num(v.first().copied().unwrap_or(f64::NAN))),
        ("max", Json::Num(v.last().copied().unwrap_or(f64::NAN))),
        ("n", Json::Num(xs.len() as f64)),
        (
            "samples",
            Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        assert_eq!(
            quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            (2.75, 8.25)
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
