//! Process accounting read from `/proc`: CPU time and peak resident
//! memory of the daemons and of the driver itself.

/// `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. It is 100 on every Linux ABI the program builds
/// for; the standard library has no `sysconf` to ask.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself
/// hold spaces and parentheses, so fields are counted from the last
/// `)`: `utime` and `stime` are fields 14 and 15 of the line, the 12th
/// and 13th after the name.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_SEC)
}

/// Peak resident set size in MB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds a live process has used so far; 0 when it is gone.
pub fn cpu_seconds(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident MB of a live process; 0 when it is gone.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a `)` must not shift the fields.
        let stat = "4242 (pan gea) d) S 1 4242 4242 0 -1 4194304 \
                    500 0 0 0 1234 66 0 0 20 0 9 0 100 1000 200";
        assert_eq!(parse_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn own_cpu_time_is_readable_and_grows() {
        let before = cpu_seconds(std::process::id());
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(std::process::id()) > before);
    }

    #[test]
    fn vm_hwm_is_parsed_in_mb() {
        let status = "Name:\tpangead\nVmPeak:\t 9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert!(vm_hwm_mb(std::process::id()) > 0.0);
    }
}
