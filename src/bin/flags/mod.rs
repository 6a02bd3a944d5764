//! Flag values the daemons share: each parser returns the value, or the
//! `<flag> must be …, got <value>` reason the daemon prints over its usage.

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::time::Duration;

/// A duration flag's value: seconds, greater than zero and small enough
/// for a [`Duration`] (which rules out NaN and the infinities too).
pub fn positive_secs(flag: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(secs) if secs > 0.0 && Duration::try_from_secs_f64(secs).is_ok() => Ok(secs),
        _ => Err(format!("{flag} must be a finite number of seconds greater than 0, got {value}")),
    }
}

/// A whole-number flag's value, within `range`.
pub fn whole<T: FromStr + PartialOrd + Display>(
    flag: &str,
    value: &str,
    range: RangeInclusive<T>,
) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(n) if range.contains(&n) => Ok(n),
        _ => Err(format!(
            "{flag} must be a whole number from {} to {}, got {value}",
            range.start(),
            range.end()
        )),
    }
}
