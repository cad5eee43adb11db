//! Standard output for the one-shot commands. A reader that stops early
//! (`phigraph run … | grep -q`) closes the pipe; printing then stops, while
//! the command still writes its files and exits with its own status.
//! `println!` would panic on the first write after that.

use std::io::Write;

/// Write `args` to standard output; returns whether the write went
/// through.
pub(crate) fn print(args: std::fmt::Arguments<'_>) -> bool {
    std::io::stdout().write_fmt(args).is_ok()
}

/// `print!` that ignores a closed standard output.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::print(format_args!($($arg)*))
    };
}

/// `println!` that ignores a closed standard output.
macro_rules! outln {
    ($($arg:tt)*) => {{
        $crate::out::print(format_args!("{}\n", format_args!($($arg)*)));
    }};
}

pub(crate) use {out, outln};
