//! The one flag reader every `mcsim` subcommand parses through.

/// A subcommand's arguments, read front to back: each item is a flag or
/// a positional argument, and a flag that takes a value reads it with
/// [`Args::value`], [`Args::number`] or [`Args::pair`].
pub struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    pub fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    /// The value that follows `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next()
            .map(str::to_string)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value that follows `flag`, as a number (see [`number`]).
    pub fn number<T: TryFrom<u64>>(&mut self, flag: &str) -> Result<T, String> {
        number(flag, &self.value(flag)?)
    }

    /// The value that follows `flag`, as two numbers around `sep`
    /// (`--mem 0x100=7`, `--trace-cycles 10..20`).
    pub fn pair(&mut self, flag: &str, sep: &str) -> Result<(u64, u64), String> {
        let v = self.value(flag)?;
        let (a, b) = v
            .split_once(sep)
            .ok_or_else(|| format!("{flag} expects A{sep}B, got `{v}`"))?;
        Ok((number(flag, a)?, number(flag, b)?))
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// `s`, the value of `flag`, as a decimal or `0x`-prefixed hex number
/// that fits in `T`.
pub fn number<T: TryFrom<u64>>(flag: &str, s: &str) -> Result<T, String> {
    let n = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    };
    n.and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{flag} expects a number, got `{s}`"))
}
