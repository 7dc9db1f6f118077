//! Output checks. Each returns `Err(reason)` for output the benchmark must
//! count as a failed operation.

use std::collections::HashMap;

use simcore::SimStats;

/// One-line fingerprint of a simulated run: its makespan in integer
/// nanoseconds and its recovery counters, or its structured error. Lines are
/// compared exactly, across iterations and against `expected.rs`.
pub fn fingerprint(label: &str, outcome: Result<(u64, &SimStats), &str>) -> String {
    match outcome {
        Ok((makespan_ns, s)) => format!(
            "{label} makespan_ns={makespan_ns} retried={} speculated={} copies={} wins={} \
             fetch_retries={} replanned={}",
            s.tasks_retried,
            s.tasks_speculated,
            s.mono_copies,
            s.mono_copy_wins,
            s.fetch_retries,
            s.fetches_replanned
        ),
        Err(e) => format!("{label} error={e}"),
    }
}

/// Compares one iteration's fingerprints with a reference list (the first
/// iteration's, or the recorded default-seed values). Returns one verdict
/// per observed line.
pub fn compare(observed: &[String], reference: &[&str], what: &str) -> Vec<Result<(), String>> {
    observed
        .iter()
        .enumerate()
        .map(|(i, line)| match reference.get(i) {
            Some(want) if *want == line => Ok(()),
            Some(want) => Err(format!("{what}: got `{line}`, want `{want}`")),
            None => Err(format!("{what}: unexpected extra run `{line}`")),
        })
        .collect()
}

/// Validates an exported Chrome trace and checks that it holds exactly one
/// record span per run record: one span per monotask record for a
/// monotasks run (categories `cpu`/`disk`/`net`), one machine-lane span per
/// task record for a Spark-like run (named `task j…`).
pub fn check_trace(json: &str, records: usize) -> Result<usize, String> {
    let stats =
        mt_trace::validate_chrome_json(json).map_err(|e| format!("trace is not valid: {e}"))?;
    let record_spans = json
        .lines()
        .filter(|l| l.starts_with("{\"ph\":\"X\""))
        .filter(|l| {
            l.contains("\"cat\":\"cpu\"")
                || l.contains("\"cat\":\"disk\"")
                || l.contains("\"cat\":\"net\"")
                || l.contains("\"name\":\"task j")
        })
        .count();
    if record_spans != records {
        return Err(format!(
            "trace has {record_spans} record spans for {records} run records"
        ));
    }
    Ok(stats.spans)
}

/// Word-count output (`word` → big-endian u64 count) against the reference
/// executor's counts for the same lines.
pub fn check_wordcount(
    output: &[(Vec<u8>, Vec<u8>)],
    reference: &HashMap<String, u64>,
) -> Result<(), String> {
    if output.len() != reference.len() {
        return Err(format!(
            "word count produced {} words, reference has {}",
            output.len(),
            reference.len()
        ));
    }
    for (key, value) in output {
        let word = std::str::from_utf8(key).map_err(|_| "word is not UTF-8".to_string())?;
        let count = <[u8; 8]>::try_from(value.as_slice())
            .map(u64::from_be_bytes)
            .map_err(|_| format!("count of {word:?} is not 8 bytes"))?;
        match reference.get(word) {
            Some(&want) if want == count => {}
            Some(&want) => return Err(format!("count of {word:?} is {count}, want {want}")),
            None => return Err(format!("word {word:?} is not in the input")),
        }
    }
    Ok(())
}

/// The shuffle job's output keys against its input keys, as multisets.
/// `input_sorted` must be sorted.
pub fn check_keys(mut output: Vec<Vec<u8>>, input_sorted: &[Vec<u8>]) -> Result<(), String> {
    output.sort_unstable();
    if output.len() != input_sorted.len() {
        return Err(format!(
            "shuffle returned {} records for {} input records",
            output.len(),
            input_sorted.len()
        ));
    }
    match output.iter().zip(input_sorted).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("shuffle key multiset differs at sorted index {i}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_compare_exactly() {
        let s = SimStats {
            tasks_retried: 2,
            ..SimStats::default()
        };
        let a = fingerprint("mono", Ok((1_000, &s)));
        assert!(a.contains("makespan_ns=1000 retried=2"));
        assert_eq!(
            compare(std::slice::from_ref(&a), &[a.as_str()], "x"),
            vec![Ok(())]
        );
        let perturbed = fingerprint("mono", Ok((1_001, &s)));
        assert!(compare(std::slice::from_ref(&a), &[perturbed.as_str()], "x")[0].is_err());
        assert!(compare(&[a], &[], "x")[0].is_err());
        assert_eq!(fingerprint("m", Err("boom")), "m error=boom");
    }

    #[test]
    fn trace_check_counts_record_spans() {
        let good = "{\"traceEvents\":[\n\
            {\"ph\":\"X\",\"pid\":1,\"tid\":100,\"name\":\"compute j0s0t0\",\"cat\":\"cpu\",\"ts\":0.000,\"dur\":1.000,\"args\":{}},\n\
            {\"ph\":\"X\",\"pid\":2,\"tid\":1000,\"name\":\"task 0\",\"cat\":\"task\",\"ts\":0.000,\"dur\":1.000,\"args\":{}}\n\
            ]}\n";
        assert_eq!(check_trace(good, 1), Ok(2));
        assert!(check_trace(good, 2).is_err());
        let corrupted = &good[..good.len() - 4];
        assert!(check_trace(corrupted, 1).unwrap_err().contains("not valid"));
    }

    #[test]
    fn wordcount_and_keys() {
        let reference: HashMap<String, u64> = [("a".to_string(), 2), ("b".to_string(), 1)].into();
        let out = vec![
            (b"a".to_vec(), 2u64.to_be_bytes().to_vec()),
            (b"b".to_vec(), 1u64.to_be_bytes().to_vec()),
        ];
        assert_eq!(check_wordcount(&out, &reference), Ok(()));
        let mut wrong = out.clone();
        wrong[1].1 = 2u64.to_be_bytes().to_vec();
        assert!(check_wordcount(&wrong, &reference).is_err());
        assert!(check_wordcount(&out[..1], &reference).is_err());

        let input = vec![b"k1".to_vec(), b"k1".to_vec(), b"k2".to_vec()];
        assert_eq!(
            check_keys(vec![b"k2".to_vec(), b"k1".to_vec(), b"k1".to_vec()], &input),
            Ok(())
        );
        assert!(check_keys(vec![b"k2".to_vec(), b"k1".to_vec(), b"k2".to_vec()], &input).is_err());
        assert!(check_keys(vec![b"k1".to_vec()], &input).is_err());
    }
}
