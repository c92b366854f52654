package ansible

// Keyword describes a play- or task-level keyword: a key that influences
// execution (conditionals, loops, privilege escalation, ...) rather than
// naming a module.
type Keyword struct {
	Name string
	Type ParamType
}

// taskKeywords are the keywords accepted on a task (a superset also applies
// to blocks). The catalogue follows the Ansible playbook keyword reference.
var taskKeywords = []Keyword{
	{"name", StrParam},
	{"when", AnyParam}, // string or list of strings
	{"loop", AnyParam}, // list or template string
	{"with_items", AnyParam},
	{"with_dict", AnyParam},
	{"with_fileglob", AnyParam},
	{"loop_control", DictParam},
	{"register", StrParam},
	{"become", BoolParam},
	{"become_user", StrParam},
	{"become_method", StrParam},
	{"notify", AnyParam}, // string or list
	{"tags", AnyParam},   // string or list
	{"vars", DictParam},
	{"environment", DictParam},
	{"delegate_to", StrParam},
	{"delegate_facts", BoolParam},
	{"run_once", BoolParam},
	{"ignore_errors", BoolParam},
	{"ignore_unreachable", BoolParam},
	{"failed_when", AnyParam},
	{"changed_when", AnyParam},
	{"until", StrParam},
	{"retries", IntParam},
	{"delay", IntParam},
	{"no_log", BoolParam},
	{"check_mode", BoolParam},
	{"diff", BoolParam},
	{"any_errors_fatal", BoolParam},
	{"throttle", IntParam},
	{"timeout", IntParam},
	{"remote_user", StrParam},
	{"connection", StrParam},
	{"collections", ListParam},
	{"module_defaults", DictParam},
	{"args", DictParam},
	{"action", StrParam},
	{"listen", AnyParam}, // handler-only: string or list
	{"first_available_file", ListParam},
}

// blockKeywords are the keys that define an Ansible block task.
var blockKeywords = []Keyword{
	{"block", ListParam},
	{"rescue", ListParam},
	{"always", ListParam},
}

// playKeywords are the keywords accepted at the top level of a play.
var playKeywords = []Keyword{
	{"name", StrParam},
	{"hosts", AnyParam}, // string or list
	{"tasks", ListParam},
	{"pre_tasks", ListParam},
	{"post_tasks", ListParam},
	{"handlers", ListParam},
	{"roles", ListParam},
	{"vars", DictParam},
	{"vars_files", ListParam},
	{"vars_prompt", ListParam},
	{"gather_facts", BoolParam},
	{"gather_subset", ListParam},
	{"become", BoolParam},
	{"become_user", StrParam},
	{"become_method", StrParam},
	{"remote_user", StrParam},
	{"connection", StrParam},
	{"serial", AnyParam}, // int, percentage string, or list
	{"strategy", StrParam},
	{"max_fail_percentage", IntParam},
	{"any_errors_fatal", BoolParam},
	{"ignore_errors", BoolParam},
	{"ignore_unreachable", BoolParam},
	{"force_handlers", BoolParam},
	{"run_once", BoolParam},
	{"tags", AnyParam},
	{"environment", DictParam},
	{"collections", ListParam},
	{"module_defaults", DictParam},
	{"order", StrParam},
	{"port", IntParam},
	{"throttle", IntParam},
	{"timeout", IntParam},
	{"no_log", BoolParam},
	{"check_mode", BoolParam},
	{"diff", BoolParam},
	{"debugger", StrParam},
}

var (
	taskKeywordSet  = keywordSet(taskKeywords)
	blockKeywordSet = keywordSet(blockKeywords)
	playKeywordSet  = keywordSet(playKeywords)
)

func keywordSet(kws []Keyword) map[string]Keyword {
	m := make(map[string]Keyword, len(kws))
	for _, k := range kws {
		m[k.Name] = k
	}
	return m
}

// IsTaskKeyword reports whether name is a task-level keyword.
func IsTaskKeyword(name string) bool {
	_, ok := taskKeywordSet[name]
	return ok
}

// IsBlockKeyword reports whether name defines a block section (block,
// rescue, always).
func IsBlockKeyword(name string) bool {
	_, ok := blockKeywordSet[name]
	return ok
}

// IsPlayKeyword reports whether name is a play-level keyword.
func IsPlayKeyword(name string) bool {
	_, ok := playKeywordSet[name]
	return ok
}

// TaskKeyword returns the keyword spec for a task-level keyword.
func TaskKeyword(name string) (Keyword, bool) {
	k, ok := taskKeywordSet[name]
	return k, ok
}

// PlayKeyword returns the keyword spec for a play-level keyword.
func PlayKeyword(name string) (Keyword, bool) {
	k, ok := playKeywordSet[name]
	return k, ok
}
