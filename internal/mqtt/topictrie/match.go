package topictrie

// NextLevel returns the topic level beginning at byte offset pos, the
// offset of the following level, and whether another level follows. Level
// semantics are exactly those of strings.Split(s, "/"): the empty string
// is one empty level, and leading/trailing/doubled separators produce
// empty levels. Iterating with NextLevel therefore visits precisely the
// Split slices without allocating them.
func NextLevel(s string, pos int) (level string, next int, more bool) {
	for i := pos; i < len(s); i++ {
		if s[i] == '/' {
			return s[pos:i], i + 1, true
		}
	}
	return s[pos:], len(s), false
}

// Matches reports whether a concrete topic name matches a subscription
// filter (MQTT 3.1.1 §4.7): `+` matches exactly one level, a trailing `#`
// matches the remaining levels including the parent level itself, and a
// filter whose first level is a wildcard does not match a topic beginning
// with '$' [MQTT-4.7.2-1]. The walk is allocation-free and byte-for-byte
// equivalent to the strings.Split oracle in the tests for every input,
// valid or not.
func Matches(filter, topic string) bool {
	if isDollar(topic) {
		if first, _, _ := NextLevel(filter, 0); first == "+" || first == "#" {
			return false
		}
	}
	fi, ti := 0, 0
	tDone := false // no topic level left to consume
	for {
		fseg, fnext, fmore := NextLevel(filter, fi)
		if fseg == "#" {
			return true
		}
		if tDone {
			return false
		}
		tseg, tnext, tmore := NextLevel(topic, ti)
		if fseg != "+" && fseg != tseg {
			return false
		}
		ti, tDone = tnext, !tmore
		if !fmore {
			return tDone
		}
		fi = fnext
	}
}

// isDollar reports whether topic is a '$' topic (broker-internal control
// traffic), which no filter starting with a wildcard matches.
func isDollar(topic string) bool { return len(topic) > 0 && topic[0] == '$' }
