//! Tests of the attack's evaluation metric: the inference accuracy of
//! §6.1.2 ("the classification accuracy of the sensitive attribute"), as
//! [`AttackSession::accuracy`](crate::AttackSession::accuracy) reports it.

#[cfg(test)]
mod tests {
    use crate::AttackSession;
    use std::collections::HashMap;

    /// A session whose prediction for each target is the given class.
    fn predicting(pairs: &[(usize, usize)]) -> AttackSession {
        let mut s = AttackSession::new();
        for &(target, class) in pairs {
            let mut scores = [0.0; 2];
            scores[class] = 1.0;
            s.record(target, &scores);
        }
        s
    }

    fn map(pairs: &[(usize, usize)]) -> HashMap<usize, usize> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn accuracy_counts_overlap_only() {
        let s = predicting(&[(0, 1), (1, 0), (9, 1)]);
        // 0 → 1 is right, 1 → 0 is wrong, 9 has no truth and 4 was never
        // scored: neither counts.
        let mut truth = map(&[(0, 1), (1, 1), (4, 0)]);
        assert_eq!(s.accuracy(&truth), Some(0.5));
        truth.remove(&1);
        assert_eq!(s.accuracy(&truth), Some(1.0));
    }

    #[test]
    fn accuracy_none_without_overlap() {
        assert_eq!(predicting(&[(5, 0)]).accuracy(&map(&[(6, 0)])), None);
    }
}
